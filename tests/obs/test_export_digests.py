"""Golden digests of the four ``psi-eval profile`` exports.

An observed run's exports are a pure function of the run, so their
bytes are pinned: the Chrome trace, the JSONL event log, the
collapsed stacks and the diffable profile snapshot.  Any change to how
the session records (the clock, the cache-window cuts, the stack
reclaim log, track order) or how the tracer encodes shows up here as a
digest mismatch.

The small-window case forces many mid-run cache cuts (some inside
block accesses) and ring-buffer drops on the ``stacks`` track.

To regenerate after an intentional change, run
``PYTHONPATH=src python tests/obs/test_export_digests.py`` and paste
its output over :data:`GOLDEN`.
"""

import dataclasses
import hashlib
import io
import pathlib
import tempfile

import pytest

from repro import obs
from repro.eval.specs import get_spec
from repro.obs import diffprof
from repro.tools.collect import collect
from repro.workloads import get

#: (workload, ObsConfig overrides) -> sha256 of each export
CASES = {
    "nreverse": ("nreverse", {}),
    "qsort": ("qsort", {}),
    "lcp-1": ("lcp-1", {}),
    "nreverse-small-window": ("nreverse", {"cache_window": 512,
                                           "trace_capacity": 256}),
}

GOLDEN = {
    "nreverse": {
        "chrome": "0a6a42c83e3d9f72156105236c15a9392ae33439e29cd1deeeac826d2d757911",
        "jsonl": "2968a3714e38ef5d42f0a1fae9814b48e4111adba9dd158de29b34741cdb84f0",
        "collapsed": "4c16a36dcdde11c2f0645c1f29c75c5c40f0a53eb016f2a9236252932514d3cf",
        "snapshot": "2aa0dd67120222322c2433a62b99d3ba23adf9f0d08c055ad4464416de3adbf7",
    },
    "qsort": {
        "chrome": "ff29ab325c886d146d1443a72eed17db62e88c8b3f9dd73013166637627604d7",
        "jsonl": "27734b42f320e5557ae5b4401dbde2862ee41ac80dbe48170076376677db2941",
        "collapsed": "66458c5acd7ccc5b297278a9c6a5aa29680db0433a4f2d2206bc9fc6336938a8",
        "snapshot": "46485e955f2a7c816c8ae86bef5f9aef96a9cddf3a866d46d3856e635f2fe208",
    },
    "lcp-1": {
        "chrome": "d219d40c18a5d93407e95ea4e77053818b58f64c8f896491540a69e4f435d3d0",
        "jsonl": "80a9b1f517b50fc1e0e6356bb882327831544ed55e92482a11b98d6fba7ca69a",
        "collapsed": "c7a4332d13254ab96e07e971ffccf2164440afdf096f7f98decb6b4089f695c2",
        "snapshot": "435cf54d8905d21aa093ad6ffac8476280885a6552b40ed4116bce0e939f6efb",
    },
    "nreverse-small-window": {
        "chrome": "61b7c5aa0bf869940b0f92377395a3729c0ac912f671924788140fe04823fda4",
        "jsonl": "cffccdba6f625568ae479dc841b0573f83dba04d27af9eaabde3a26d2c91ded7",
        "collapsed": "4c16a36dcdde11c2f0645c1f29c75c5c40f0a53eb016f2a9236252932514d3cf",
        "snapshot": "b46d56d9c58283d8948fc1a397da9b49bb912874d15f5fc0171878c573542265",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def export_digests(name: str, overrides: dict, out_dir) -> dict[str, str]:
    """Collect ``name`` observed, as ``psi-eval profile`` does, and
    digest its four exports."""
    workload = get(name)
    spec = get_spec("faithful")
    with obs.observed(**overrides):
        run = collect(workload.source, workload.goal,
                      all_solutions=workload.all_solutions,
                      record_trace=False, with_cache=spec.with_cache,
                      cache_config=dataclasses.replace(spec.cache_config),
                      machine_config=dataclasses.replace(spec.machine_config),
                      setup_goals=workload.setup_goals)
    observation = run.observation
    writers = {
        "chrome": lambda fp: observation.write_chrome(fp, name=f"PSI {name}"),
        "jsonl": observation.write_jsonl,
        "collapsed": lambda fp: observation.write_collapsed(fp, root=name),
    }
    digests = {}
    for kind, write in writers.items():
        buffer = io.StringIO()
        write(buffer)
        digests[kind] = _sha(buffer.getvalue().encode())
    path = pathlib.Path(out_dir) / f"{name}.profile.json"
    diffprof.write_snapshot(path, name, observation)
    digests["snapshot"] = _sha(path.read_bytes())
    return digests


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.reset()
    yield
    obs.reset()


@pytest.mark.parametrize("case", sorted(CASES))
def test_export_digests(case, tmp_path):
    name, overrides = CASES[case]
    assert export_digests(name, overrides, tmp_path) == GOLDEN[case]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        for case, (name, overrides) in CASES.items():
            print(f'    "{case}": {{')
            for kind, digest in export_digests(name, overrides,
                                               scratch).items():
                print(f'        "{kind}": "{digest}",')
            print("    },")
