"""Command-line entry point tests (python -m repro / python -m repro.eval)."""

import os
import tempfile

import pytest

from repro.__main__ import main as compile_main
from repro.check.targets import DEGRADED_EXAMPLE
from repro.codegen import compile_kernel
from repro.eval.__main__ import build_parser, main as eval_main
from repro.nas import kernels


@pytest.fixture()
def lhsy_file(tmp_path):
    f = tmp_path / "lhsy.f"
    f.write_text(kernels.LHSY_SP)
    return str(f)


class TestCompileCLI:
    def test_compile_report(self, lhsy_file, capsys):
        rc = compile_main(["compile", lhsy_file, "--nprocs", "4", "--param", "n=17"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "grid (2, 2)" in out
        assert "ON_HOME lhs(i,j+1,k,2)" in out
        assert "[new]" in out
        assert "none — every reference is local" in out

    def test_emit_flag(self, lhsy_file, capsys):
        rc = compile_main(
            ["compile", lhsy_file, "--nprocs", "4", "--param", "n=17", "--emit"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "def node_program(rank, A, S, K):" in out

    def test_unsupported_kernel_fails_cleanly(self, tmp_path, capsys):
        """A refused kernel prints one line: the soundness screen's reason,
        the text a lenient compile puts in its I-FALLBACK (pipelined
        communication is named before whatever else the nest has)."""
        for source, params, word in (
            (kernels.Y_SOLVE_SP, {"n": 17, "m": 0}, "pipelined"),
            (DEGRADED_EXAMPLE, {}, "non-affine subscript"),
        ):
            f = tmp_path / "k.f"
            f.write_text(source)
            argv = ["compile", str(f), "--nprocs", "4"]
            for name, value in params.items():
                argv += ["--param", f"{name}={value}"]
            assert compile_main(argv) == 1
            err = capsys.readouterr().err
            assert word in err and err.count("\n") == 1
            reason = err.strip().removeprefix("cannot generate code: ")
            if word != "pipelined":
                lenient = compile_kernel(source, 4, params, strict=False)
                assert [d.message.rsplit(": ", 1)[1]
                        for d in lenient.fallback_diagnostics] == [reason]


class TestEvalCLI:
    def test_diffstats(self, capsys):
        def leftovers():
            return {e for e in os.listdir(tempfile.gettempdir())
                    if e.startswith("repro-")}

        before = leftovers()
        assert eval_main(["diffstats"]) == 0
        out = capsys.readouterr().out
        assert "fig4.1" in out
        assert "paper: SP 147/3152" in out
        # the report's hermetic plan cache is removed with the report
        assert leftovers() <= before

    @pytest.mark.parametrize("argv", [
        ["table-8.1", "--mutate", "x"],
        ["fuzz", "--drop", "0.1"],
        ["bench"],  # no such target: bench/ is the measuring stick
    ])
    def test_foreign_flag_or_target_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            eval_main(argv)
        assert exc.value.code == 2
        capsys.readouterr()

    def test_every_target_declares_only_its_own_flags(self, capsys):
        """Each subcommand rejects every flag it does not declare."""
        (sub,) = [a for a in build_parser()._actions if a.choices]
        flags = {
            target: {o for a in p._actions for o in a.option_strings
                     if o.startswith("--") and o != "--help"}
            for target, p in sub.choices.items()
        }
        everything = set().union(*flags.values())
        assert len(everything) <= 31
        for target, own in flags.items():
            for foreign in sorted(everything - own):
                with pytest.raises(SystemExit) as exc:
                    eval_main([target, foreign])
                assert exc.value.code == 2, (target, foreign)
        capsys.readouterr()

    def test_figure(self, capsys):
        assert eval_main(["figure-8.1", "--nprocs", "4", "--width", "40"]) == 0
        out = capsys.readouterr().out
        assert "Figure 8.1" in out
        assert out.count("P") >= 4

    def test_figure_json(self, capsys):
        import json

        assert eval_main(["figure-8.2", "--nprocs", "4", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["strategy"] == "dhpf"

    def test_table_single_class(self, capsys):
        assert eval_main(["table-8.1", "--classes", "A", "--procs", "4"]) == 0
        out = capsys.readouterr().out
        assert "Class A" in out and "E.dHPF" in out

    @pytest.mark.parametrize("argv,want", [
        (["chaos"], 4),                        # class-S default grid
        (["chaos", "--nprocs", "16"], 16),     # an explicit 16 is honoured
        (["chaos", "--nprocs", "9"], 9),
        (["phases"], 16),
        (["ablations", "--nprocs", "4"], 4),
    ])
    def test_nprocs_default_is_resolved_per_target(self, monkeypatch, argv, want):
        import repro.eval.ablations as ablations
        import repro.eval.chaos as chaos
        import repro.eval.phases as phases

        seen = []

        def sweep(*a, nprocs, **kw):
            seen.append(nprocs)
            return []

        def positional(*a, **kw):
            seen.append(a[-1])
            return []

        monkeypatch.setattr(chaos, "drop_sweep", sweep)
        monkeypatch.setattr(chaos, "crash_sweep", sweep)
        monkeypatch.setattr(chaos, "format_chaos", lambda rows, title: title)
        monkeypatch.setattr(phases, "phase_breakdown", positional)
        monkeypatch.setattr(phases, "format_phase_table", lambda rows: "")
        monkeypatch.setattr(ablations, "schedule_ablations", positional)
        monkeypatch.setattr(ablations, "analysis_ablations", lambda: [])
        monkeypatch.setattr(ablations, "format_ablations", lambda s, a: "")
        assert eval_main(argv) == 0
        assert seen and set(seen) == {want}
