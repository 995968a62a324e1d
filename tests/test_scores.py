"""Score storage, CSV round trips, and difference assembly."""

import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bayescv.scores import DifferenceSeries, ScoreMatrix, assemble_differences


def small_matrix():
    m = ScoreMatrix()
    for rep in range(2):
        for fold in range(3):
            base = 0.7 + 0.01 * rep + 0.001 * fold
            m.add("d1", "sysa", "token", rep, fold, base + 0.02)
            m.add("d1", "sysb", "token", rep, fold, base)
            m.add("d2", "sysa", "token", rep, fold, base + 0.01)
            m.add("d2", "sysb", "token", rep, fold, base + 0.015)
    return m


class TestScoreMatrix:
    def test_duplicate_rejected(self):
        m = ScoreMatrix()
        m.add("d", "s", "token", 0, 0, 0.5)
        with pytest.raises(
            ValueError, match=re.escape("duplicate score for ('d', 's', 'token', 0, 0)")
        ):
            m.add("d", "s", "token", 0, 0, 0.6)

    def test_range_validated(self):
        m = ScoreMatrix()
        with pytest.raises(ValueError):
            m.add("d", "s", "token", 0, 0, 1.2)
        with pytest.raises(ValueError):
            m.add("d", "s", "token", 0, 0, -0.01)
        with pytest.raises(ValueError):
            m.add("d", "s", "token", -1, 0, 0.5)

    @pytest.mark.parametrize("bad", ["a\nb", "a\rb", "a\r\nb"], ids=["lf", "cr", "crlf"])
    @pytest.mark.parametrize("position", [0, 1, 2], ids=["dataset", "system", "metric"])
    def test_line_break_in_an_id_rejected(self, bad, position):
        ids = ["d", "s", "token"]
        ids[position] = bad
        with pytest.raises(ValueError, match="line break"):
            ScoreMatrix().add(*ids, 0, 0, 0.5)

    def test_none_is_allowed(self):
        m = ScoreMatrix()
        m.add("d", "s", "oov", 0, 0, None)
        assert m.entries[("d", "s", "oov", 0, 0)] is None

    def test_enumerations(self):
        m = small_matrix()
        assert sorted({key[1] for key in m.entries}) == ["sysa", "sysb"]
        assert sorted({key[0] for key in m.entries}) == ["d1", "d2"]
        assert len(m) == 24

    def test_merge_conflict(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        small_matrix().to_csv(a)
        small_matrix().to_csv(b)
        with pytest.raises(ValueError, match=r"b\.csv:\d+: duplicate score for"):
            ScoreMatrix.from_csvs([a, b])

    def test_merge_disjoint(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        small_matrix().to_csv(a)
        extra = ScoreMatrix()
        extra.add("d3", "sysa", "token", 0, 0, 0.4)
        extra.to_csv(b)
        assert len(ScoreMatrix.from_csvs([a, b])) == 25


class TestScoreCsv:
    def test_roundtrip(self, tmp_path):
        m = small_matrix()
        m.add("d1", "sysa", "oov", 0, 0, None)
        path = tmp_path / "s.csv"
        m.to_csv(path)
        again = ScoreMatrix.from_csvs([path])
        assert again.entries == m.entries

    def test_roundtrip_is_byte_stable(self, tmp_path):
        m = small_matrix()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        m.to_csv(p1)
        ScoreMatrix.from_csvs([p1]).to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_manifest_comment_skipped(self, tmp_path):
        m = small_matrix()
        path = tmp_path / "s.csv"
        m.to_csv(path, manifest="manifest.txt")
        first = path.read_text().splitlines()[0]
        assert first == "# manifest: manifest.txt"
        assert ScoreMatrix.from_csvs([path]).entries == m.entries

    def test_byte_order_mark_is_dropped(self, tmp_path):
        # Spreadsheet programs start a UTF-8 CSV with a byte-order mark.
        m = small_matrix()
        path = tmp_path / "s.csv"
        m.to_csv(path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert ScoreMatrix.from_csvs([path]).entries == m.entries

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("dataset,system,metric,rep,fold,score\n")
        with pytest.raises(ValueError):
            ScoreMatrix.from_csvs([path])

    def test_bad_row_carries_line_number(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(
            "dataset,system,metric,repetition,fold,score\nd,s,token,0,0,not-a-number\n"
        )
        with pytest.raises(ValueError, match=":2"):
            ScoreMatrix.from_csvs([path])

    def test_errors_name_the_physical_line(self, tmp_path):
        # Line 1 is a comment, as in every file score writes.
        path = tmp_path / "dup.csv"
        path.write_text(
            "# manifest: x\ndataset,system,metric,repetition,fold,score\n"
            "d,s,token,0,0,0.5\nd,s,token,0,0,0.5\n"
        )
        with pytest.raises(ValueError, match=r"dup\.csv:4: duplicate score"):
            ScoreMatrix.from_csvs([path])

    def test_a_quoted_line_break_moves_later_line_numbers(self, tmp_path):
        # The record on lines 3-4 holds a quoted line break; the bad row
        # after it is on line 5.
        path = tmp_path / "multi.csv"
        path.write_text(
            "# manifest: x\ndataset,system,metric,repetition,fold,score\n"
            'd,s,token,0,0,"0.5\n"\nd,s,token,0,1,not-a-number\n'
        )
        with pytest.raises(ValueError, match=r"multi\.csv:5: could not convert"):
            ScoreMatrix.from_csvs([path])

    def test_from_csvs_merges(self, tmp_path):
        m = small_matrix()
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        half_a, half_b = ScoreMatrix(), ScoreMatrix()
        for key, value in m.entries.items():
            (half_a if key[0] == "d1" else half_b).entries[key] = value
        half_a.to_csv(pa)
        half_b.to_csv(pb)
        combined = ScoreMatrix.from_csvs([pa, pb])
        assert combined.entries == m.entries


class TestAssembleDifferences:
    def test_basic_pairing(self):
        series = assemble_differences(small_matrix(), "sysa", "sysb", "token")
        assert [s.dataset_id for s in series] == ["d1", "d2"]
        d1, d2 = series
        assert d1.n == 6
        assert_allclose(d1.x, 0.02)
        assert_allclose(d2.x, -0.005)

    def test_antisymmetric(self):
        ab = assemble_differences(small_matrix(), "sysa", "sysb", "token")
        ba = assemble_differences(small_matrix(), "sysb", "sysa", "token")
        for f, r in zip(ab, ba):
            assert_allclose(f.x, -r.x, rtol=0, atol=0)

    def test_self_comparison_is_zero(self):
        series = assemble_differences(small_matrix(), "sysa", "sysa", "token")
        for s in series:
            assert_allclose(s.x, 0.0, rtol=0, atol=0)

    def test_rho_defaults_to_one_over_k(self):
        series = assemble_differences(small_matrix(), "sysa", "sysb", "token")
        assert series[0].rho == pytest.approx(1.0 / 3.0)
        forced = assemble_differences(small_matrix(), "sysa", "sysb", "token", rho=0.2)
        assert forced[0].rho == 0.2

    def test_none_cells_dropped_pairwise(self):
        m = small_matrix()
        m.entries[("d1", "sysa", "token", 0, 0)] = None
        series = assemble_differences(m, "sysa", "sysb", "token")
        d1 = series[0]
        assert d1.n == 5
        assert_allclose(d1.x, 0.02)

    def test_partial_overlap_uses_shared_cells(self):
        m = small_matrix()
        m.add("d1", "sysb", "token", 5, 0, 0.9)
        series = assemble_differences(m, "sysa", "sysb", "token")
        assert series[0].n == 6

    def test_no_shared_raises(self):
        message = "no shared scores between 'sysa' and {!r} for metric {!r}"
        with pytest.raises(ValueError, match=re.escape(message.format("nosuch", "token"))):
            assemble_differences(small_matrix(), "sysa", "nosuch", "token")
        with pytest.raises(ValueError, match=re.escape(message.format("sysb", "unknown-metric"))):
            assemble_differences(small_matrix(), "sysa", "sysb", "unknown-metric")

    def test_constant_shift_moves_differences(self):
        m = ScoreMatrix()
        rng = np.random.default_rng(0)
        for rep in range(3):
            for fold in range(4):
                v = float(rng.uniform(0.3, 0.6))
                m.add("d", "a", "token", rep, fold, v + 0.1)
                m.add("d", "b", "token", rep, fold, v)
        series = assemble_differences(m, "a", "b", "token")
        assert_allclose(series[0].x, 0.1, atol=1e-12)


class TestDifferenceSeries:
    def test_rho_bound_depends_on_n(self):
        DifferenceSeries("d", np.zeros(3), rho=-0.4)
        with pytest.raises(ValueError):
            DifferenceSeries("d", np.zeros(3), rho=-0.5)
        with pytest.raises(ValueError):
            DifferenceSeries("d", np.zeros(3), rho=1.0)

    def test_x_is_frozen(self):
        s = DifferenceSeries("d", np.zeros(3), rho=0.1)
        with pytest.raises(ValueError):
            s.x[0] = 1.0

    def test_length_checked(self):
        assert DifferenceSeries("d", np.zeros(3), rho=0.1).n == 3
        with pytest.raises(ValueError, match="non-empty"):
            DifferenceSeries("d", np.zeros(0), rho=0.1)


class TestRhoHeuristic:
    def test_one_over_k_matches_training_overlap_simulation(self):
        # Two evaluation folds of a k-fold design share (k-2)/(k-1) of
        # their training items. Simulate a linear-in-training-noise score
        # and check the induced correlation sits near 1/k for k = 5.
        # The 1/k default is a heuristic, so the tolerance is loose.
        rng = np.random.default_rng(1234)
        k = 5
        n_runs = 4000
        scores = np.empty((n_runs, k))
        for run in range(n_runs):
            item_noise = rng.normal(size=k)
            for fold in range(k):
                train = [f for f in range(k) if f != fold]
                scores[run, fold] = item_noise[list(train)].mean() + 0.5 * rng.normal()
        centered = scores - scores.mean(axis=0)
        cov = centered.T @ centered / n_runs
        corr = cov / np.sqrt(np.outer(np.diag(cov), np.diag(cov)))
        off = corr[~np.eye(k, dtype=bool)]
        assert 0.05 < off.mean() < 0.45
