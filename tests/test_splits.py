"""Split-plan construction and serialization checks."""

import json

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from bayescv.splits import SplitPlan, fold_roles, make_splits, read_plan, write_plan


class TestMakeSplits:
    def test_every_repetition_is_a_partition(self):
        plan = make_splits(103, 7, 5, seed=11)
        assert plan.assignments.shape == (5, 103)
        for rep in range(5):
            row = plan.assignments[rep]
            assert row.min() == 0 and row.max() == 6
            sizes = np.bincount(row, minlength=7)
            assert sizes.sum() == 103
            assert sizes.max() - sizes.min() <= 1

    def test_exact_fold_sizes_divisible(self):
        plan = make_splits(10, 5, 1, seed=0)
        sizes = np.bincount(plan.assignments[0], minlength=5)
        assert_array_equal(sizes, [2, 2, 2, 2, 2])

    def test_fold_sizes_large_corpus(self):
        # 49208 items in 10 folds: eight folds of 4921, two of 4920.
        plan = make_splits(49208, 10, 1, seed=3)
        sizes = np.bincount(plan.assignments[0], minlength=10)
        assert sorted(sizes)[:2] == [4920, 4920]
        assert set(sizes) == {4920, 4921}

    def test_deterministic(self):
        a = make_splits(50, 5, 3, seed=9)
        b = make_splits(50, 5, 3, seed=9)
        assert_array_equal(a.assignments, b.assignments)

    def test_seed_changes_assignments(self):
        a = make_splits(50, 5, 3, seed=9)
        b = make_splits(50, 5, 3, seed=10)
        assert not np.array_equal(a.assignments, b.assignments)

    def test_repetitions_differ(self):
        plan = make_splits(60, 6, 4, seed=2)
        rows = {tuple(r) for r in plan.assignments}
        assert len(rows) == 4

    def test_prefix_property(self):
        # Growing m keeps earlier repetitions identical, so score files
        # can be extended without invalidating old rounds.
        small = make_splits(40, 4, 2, seed=5)
        large = make_splits(40, 4, 6, seed=5)
        assert_array_equal(large.assignments[:2], small.assignments)

    def test_golden_small_plan(self):
        plan = make_splits(8, 4, 1, seed=1)
        assert_array_equal(plan.assignments[0], [2, 2, 0, 1, 0, 3, 3, 1])

    def test_validation(self):
        with pytest.raises(ValueError):
            make_splits(10, 1, 1, seed=0)
        with pytest.raises(ValueError):
            make_splits(10, 5, 0, seed=0)
        with pytest.raises(ValueError, match=r"^cannot split 4 items into 5 folds$"):
            make_splits(4, 5, 1, seed=0)
        with pytest.raises(ValueError):
            make_splits(10, 5, 1, seed=-1)


class TestFoldRoles:
    def test_roles_partition_items(self):
        plan = make_splits(100, 10, 2, seed=4)
        for fold in range(10):
            train, val, evl = fold_roles(plan, repetition=1, eval_fold=fold)
            assert len(evl) == 10
            assert len(val) == 10
            assert len(train) == 80
            combined = np.concatenate([train, val, evl])
            assert_array_equal(np.sort(combined), np.arange(100))

    def test_validation_fold_is_eval_and_next_is_val(self):
        plan = make_splits(30, 3, 1, seed=6)
        row = plan.assignments[0]
        train, val, evl = fold_roles(plan, 0, 2)
        assert_array_equal(evl, np.flatnonzero(row == 2))
        assert_array_equal(val, np.flatnonzero(row == 0))
        assert_array_equal(train, np.flatnonzero(row == 1))

    def test_sorted_ascending(self):
        plan = make_splits(57, 5, 2, seed=8)
        train, val, evl = fold_roles(plan, 0, 3)
        for arr in (train, val, evl):
            assert_array_equal(arr, np.sort(arr))

    def test_index_errors(self):
        plan = make_splits(20, 4, 2, seed=0)
        with pytest.raises(ValueError, match=r"^repetition 2 outside range\(0, 2\)$"):
            fold_roles(plan, 2, 0)
        with pytest.raises(ValueError, match=r"^fold 4 outside range\(0, 4\)$"):
            fold_roles(plan, 0, 4)
        with pytest.raises(ValueError, match=r"^repetition -1 outside range\(0, 2\)$"):
            fold_roles(plan, -1, 0)


class TestPlanIO:
    def test_roundtrip_bytes(self, tmp_path):
        plan = make_splits(24, 4, 3, seed=13)
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        write_plan(plan, p1)
        again = read_plan(p1)
        write_plan(again, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert_array_equal(again.assignments, plan.assignments)
        assert (again.n_items, again.k, again.m, again.seed) == (24, 4, 3, 13)

    def test_manifest_key_optional(self, tmp_path):
        plan = make_splits(12, 3, 1, seed=2)
        path = tmp_path / "p.json"
        write_plan(plan, path, manifest="m.txt")
        data = json.loads(path.read_text())
        assert data["manifest"] == "m.txt"
        assert read_plan(path).n_items == 12

    def test_read_rejects_inconsistent_plan(self, tmp_path):
        plan = make_splits(12, 3, 2, seed=2)
        path = tmp_path / "p.json"
        write_plan(plan, path)
        data = json.loads(path.read_text())
        data["assignments"][0][0] = 99
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError):
            read_plan(path)

    def test_read_rejects_missing_key(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('{"k": 3, "m": 1, "seed": 0}')
        with pytest.raises(ValueError):
            read_plan(path)


class TestSplitPlanValidation:
    def test_shape_checked(self):
        with pytest.raises(ValueError):
            SplitPlan(
                n_items=5,
                k=2,
                m=2,
                seed=0,
                assignments=np.zeros((1, 5), dtype=np.int64),
            )

    def test_fold_members(self):
        # A round's evaluation set is exactly the members of its fold, ascending.
        plan = make_splits(9, 3, 1, seed=0)
        members = fold_roles(plan, 0, 1)[2]
        assert_array_equal(members, np.flatnonzero(plan.assignments[0] == 1))
