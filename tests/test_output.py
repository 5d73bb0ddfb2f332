import math
import re

import pytest

from mesorate import (
    EnergyConfig,
    RateSet,
    SweepSpec,
    basis_state,
    build_single_dot_set,
    evolve,
    run_fermi_sweep,
    run_sweep,
    weights_for,
    write_csv,
    write_svg,
)
from mesorate.experiments import SweepRow
from mesorate.output import sweep_csv_text, svg_text, timeseries_csv_text

ROW = SweepRow(param=1.0, I_S_numeric=0.5, I_S_analytic=0.5, I_D=math.nan,
               Delta_I_D=math.nan, max_violation=0.0)


class TestSweepCsv:
    def test_single_row_table_is_two_lines(self):
        text = sweep_csv_text([ROW])
        lines = text.split("\n")
        assert lines[0] == "param,I_S_numeric,I_S_analytic,I_D,Delta_I_D,max_violation"
        assert lines[1].startswith("1,0.5,0.5,nan,nan,0")
        assert text.endswith("\n")
        assert len([ln for ln in lines if ln]) == 2

    def test_lf_line_endings_only(self):
        assert "\r" not in sweep_csv_text([ROW, ROW])

    def test_full_precision_round_trip(self):
        value = 1.0 / 3.0 + 1e-16
        row = SweepRow(param=value, I_S_numeric=value, I_S_analytic=value,
                       I_D=value, Delta_I_D=value, max_violation=value)
        line = sweep_csv_text([row]).split("\n")[1]
        for token in line.split(","):
            assert float(token) == value

    def test_empty_table_rejected_before_file_creation(self, tmp_path):
        path = tmp_path / "empty.csv"
        with pytest.raises(ValueError, match="empty"):
            write_csv([], str(path))
        assert not path.exists()

    def test_write_and_reread(self, tmp_path):
        path = tmp_path / "table.csv"
        write_csv([ROW], str(path))
        assert path.read_text().startswith("param,")

    def test_byte_determinism(self, tmp_path):
        base = RateSet(gamma_L=1, gamma_R=1, Gamma_L=1, Gamma_R=1)
        spec = SweepSpec("single_dot_set", base, "gamma_R", (1.0, 3.0, 9.0))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(run_sweep(spec), str(a))
        write_csv(run_sweep(spec), str(b))
        assert a.read_bytes() == b.read_bytes()


class TestTimeseriesCsv:
    def test_header_tokens(self):
        r = RateSet(gamma_L=1, gamma_R=1, Gamma_L=1, Gamma_R=1)
        g = build_single_dot_set(r)
        traj = evolve(g, basis_state(g.index, "a"), 1.0, dt=0.5)
        w = weights_for("single_dot_set", r)
        text = timeseries_csv_text(traj, w.system, w.detector)
        assert text.split("\n")[0] == "t,a,b,ap,bp,I_S,I_D"
        assert len(text.strip().split("\n")) == 1 + len(traj.times)

    def test_weight_on_missing_slot_rejected(self):
        r = RateSet(gamma_L=1, gamma_R=1, Gamma_L=1, Gamma_R=1)
        g = build_single_dot_set(r)
        traj = evolve(g, basis_state(g.index, "a"), 1.0, dt=0.5)
        with pytest.raises(ValueError, match="missing"):
            timeseries_csv_text(traj, {"c": 1.0})


class TestSvg:
    def fig3_rows(self):
        base = RateSet(gamma_L=1.0, gamma_R=1e4, Gamma_L=1.0, Gamma_R=1.0,
                       Omega=1.0, U1=1.0, U2=2.0)
        return run_fermi_sweep(base, EnergyConfig(E0=0.0), [0.2, 0.5, 0.8, 1.2, 1.5, 1.8])

    def test_contains_labeled_axes_and_line(self):
        text = svg_text([ROW, SweepRow(2.0, 0.6, 0.6, math.nan, math.nan, 0.0)],
                        x_label="Omega", y_label="I_S")
        assert text.startswith("<svg")
        assert "<polyline" in text
        assert ">Omega</text>" in text
        assert ">I_S</text>" in text

    def test_step_plot_has_two_plateaus(self):
        text = svg_text(self.fig3_rows(), x_label="Fermi level")
        polylines = re.findall(r'<polyline points="([^"]+)"', text)
        ys = [float(pt.split(",")[1]) for pt in polylines[-1].split()]
        levels = sorted(set(round(y, 1) for y in ys))
        assert len(levels) == 2  # two distinct plateau heights

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "plot.svg"
        with pytest.raises(ValueError, match="empty"):
            write_svg([], str(path), x_label="x")
        assert not path.exists()

    def test_write_file(self, tmp_path):
        path = tmp_path / "plot.svg"
        write_svg(self.fig3_rows(), str(path), x_label="Fermi level")
        content = path.read_text()
        assert content.startswith("<svg")
        assert content.rstrip().endswith("</svg>")
