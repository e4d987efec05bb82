"""The run-spec registry and the spec-parameterized runner path.

Covers the registry contracts (fingerprint identity, registration
guards, the process default, unknown names failing loudly) and the
acceptance property of the spec path: a non-faithful spec's runs are
disk-cached under their own fingerprint, so a second invocation
performs zero engine executions.
"""

import dataclasses

import pytest

from repro.core.machine import MachineConfig
from repro.eval import runner, specs
from repro.eval.specs import RunSpec, get_spec, register_spec, unregister_spec


@pytest.fixture(autouse=True)
def _pristine_registry():
    """Every test starts and ends on the built-in registry + default."""
    yield
    for name in list(specs.all_specs()):
        if name not in ("faithful", "indexed", "unfused", "baseline"):
            unregister_spec(name)
    specs.set_default_spec("faithful")


class TestRegistry:
    def test_builtins_present(self):
        assert set(specs.spec_names()) >= {"faithful", "indexed",
                                           "unfused", "baseline"}
        assert get_spec("faithful").engine == "psi"
        assert get_spec("indexed").machine_config.indexed is True
        assert get_spec("unfused").machine_config.fused is False
        assert get_spec("baseline").engine == "baseline"

    def test_get_spec_passthrough_and_default(self):
        spec = get_spec("indexed")
        assert get_spec(spec) is spec
        assert get_spec(None) is specs.default_spec()

    def test_unknown_spec_raises(self):
        for name in ("no-such-spec", "psi", "dec", "wam"):
            with pytest.raises(ValueError, match="unknown run spec") as info:
                get_spec(name)
            assert "registered: baseline, faithful" in str(info.value)

    def test_register_guards(self):
        with pytest.raises(ValueError, match="already registered"):
            register_spec(RunSpec(name="faithful"))
        with pytest.raises(ValueError, match="unknown engine"):
            register_spec(RunSpec(name="turbo", engine="quantum"))

    def test_register_and_unregister(self):
        spec = register_spec(RunSpec(
            name="indexed-unfused",
            machine_config=MachineConfig(indexed=True, fused=False)))
        assert get_spec("indexed-unfused") is spec
        unregister_spec("indexed-unfused")
        with pytest.raises(ValueError):
            get_spec("indexed-unfused")
        # Built-ins survive an (attempted) unregister.
        unregister_spec("faithful")
        assert get_spec("faithful").name == "faithful"

    def test_default_spec_switch(self):
        assert specs.default_spec().name == "faithful"
        specs.set_default_spec("indexed")
        assert specs.default_spec().name == "indexed"

    def test_assert_faithful_gate(self):
        specs.assert_faithful("unit test")          # faithful: no raise
        specs.set_default_spec("indexed")
        with pytest.raises(RuntimeError, match="faithful"):
            specs.assert_faithful("unit test")


class TestFingerprint:
    def test_name_excluded_from_fingerprint(self):
        a = RunSpec(name="a")
        b = RunSpec(name="b")
        assert a.fingerprint == b.fingerprint
        assert a != b                       # identity is (name, fingerprint)

    def test_configuration_changes_fingerprint(self):
        base = RunSpec(name="x")
        for variant in (
            RunSpec(name="x", machine_config=MachineConfig(indexed=True)),
            RunSpec(name="x", machine_config=MachineConfig(fused=False)),
            RunSpec(name="x", engine="baseline"),
            RunSpec(name="x", with_cache=False),
        ):
            assert variant.fingerprint != base.fingerprint

    def test_description_does_not_change_fingerprint(self):
        assert (RunSpec(name="x", description="why").fingerprint
                == RunSpec(name="x").fingerprint)

    def test_specs_are_hashable_dict_keys(self):
        tiers = {get_spec("faithful"): 1, get_spec("indexed"): 2}
        # A freshly built equal spec finds the registry spec's slot.
        assert tiers[RunSpec(name="faithful")] == 1


class TestSpecCaching:
    def test_indexed_second_invocation_zero_engine_executions(
            self, tmp_path, monkeypatch):
        """The acceptance property: after one cold pass, re-running the
        faithful/indexed pair performs zero interpretations — both specs
        are served from their fingerprint-keyed disk entries."""
        def run_pair():
            for spec in ("faithful", "indexed"):
                runner.run_spec("nreverse", spec, record_trace=False)

        # An empty private cache: purging the session's shared one
        # would send every later test that reads it back to cold runs.
        monkeypatch.setenv("PSI_CACHE_DIR", str(tmp_path))
        runner.clear_cache()
        runner.set_disk_cache(True)
        run_pair()
        first = dict(runner.CACHE_EVENTS)
        assert first.get("disk_compute:indexed", 0) == 1

        runner.clear_cache()            # memory tier only; disk persists
        run_pair()
        second = dict(runner.CACHE_EVENTS)
        assert second.get("disk_compute", 0) == 0
        assert second.get("disk_hit:indexed", 0) == 1
        assert second.get("disk_hit:faithful", 0) == 1

    def test_specs_do_not_share_memo_entries(self):
        runner.clear_cache()
        faithful = runner.run_spec("nreverse", "faithful",
                                   record_trace=False)
        indexed = runner.run_spec("nreverse", "indexed", record_trace=False)
        assert faithful is not indexed
        # Indexing narrows the clause scan, so the modelled step
        # counts must differ — a shared cache slot would equalise them.
        assert faithful.steps != indexed.steps
        assert faithful is runner.run_spec("nreverse", "faithful",
                                           record_trace=False)

    def test_registered_spec_runs_and_caches(self):
        spec = register_spec(RunSpec(
            name="indexed-unfused",
            machine_config=MachineConfig(indexed=True, fused=False)))
        runner.clear_cache()
        run = runner.run_spec("nreverse", "indexed-unfused",
                              record_trace=False)
        assert run.succeeded
        # Same modelled steps as `indexed` (fusion never changes the
        # step count), distinct cache identity.
        assert run.steps == runner.run_spec("nreverse", "indexed",
                                            record_trace=False).steps
        assert spec.fingerprint != get_spec("indexed").fingerprint

    def test_run_spec_configs_are_not_aliased_to_registry(self):
        """A live machine must never mutate the registry's config."""
        runner.clear_cache()
        before = dataclasses.replace(get_spec("faithful").machine_config)
        runner.run_spec("nreverse", "faithful", record_trace=False)
        assert get_spec("faithful").machine_config == before


class TestCreateEngine:
    def test_spec_names_are_engine_names(self):
        from repro.engine.api import create_engine

        engine = create_engine("unfused")
        engine.load("append([], L, L). "
                    "append([H|T], L, [H|R]) :- append(T, L, R).")
        assert engine.solve("append([1,2], [3], X)")
        with pytest.raises(ValueError, match="unknown run spec"):
            create_engine("no-such-spec")

    def test_registered_spec_becomes_engine_name(self):
        from repro.engine.api import create_engine

        register_spec(RunSpec(
            name="indexed-unfused",
            machine_config=MachineConfig(indexed=True, fused=False)))
        engine = create_engine("indexed-unfused")
        assert engine.name == "indexed-unfused"
        engine.load("append([], L, L). "
                    "append([H|T], L, [H|R]) :- append(T, L, R).")
        assert engine.solve("append([1], [2], X)")


class TestUnknownSpecOnTheCommandLine:
    """Names that are not registered specs exit non-zero with a one-line
    error listing the registered specs — never a traceback."""

    @pytest.mark.parametrize("argv", [
        ["run", "nreverse", "--spec", "psi"],
        ["crosscheck", "--specs", "psi,dec"],
    ])
    def test_cli_rejects_unknown_spec(self, argv):
        import os
        import pathlib
        import subprocess
        import sys

        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run([sys.executable, "-m", "repro.eval.cli", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.returncode != 0
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1, proc.stderr
        assert "unknown run spec 'psi'" in lines[0]
        assert "registered: baseline, faithful, indexed, unfused" in lines[0]
        assert proc.stdout == ""
