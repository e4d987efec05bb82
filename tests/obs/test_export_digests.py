"""Golden digests of the four ``psi-eval profile`` exports.

An observed run's exports are a pure function of the run, so their
bytes are pinned: the Chrome trace, the JSONL event log, the
collapsed stacks and the diffable profile snapshot.  Any change to how
the session records (the clock, the cache-window cuts, the stack
reclaim log, track order) or how the tracer encodes shows up here as a
digest mismatch.

The cases cover every program of perfbench's ``observe`` workload.
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
    "slow-reverse": ("slow-reverse", {}),
    "bup-1": ("bup-1", {}),
    "bup-2": ("bup-2", {}),
    "lcp-2": ("lcp-2", {}),
    "lcp-3": ("lcp-3", {}),
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
    "slow-reverse": {
        "chrome": "1a36a9bfe443a4c199be4fd57f8ad4bc20c4fcf8484d2837bab040a689e46ba3",
        "jsonl": "96e5a1020c107c3b60546fd0964d88bda3c01b1e587241f903c929c1aff2ff96",
        "collapsed": "5ee76c0ae3fe2b0239d0fc2f59ccd980b0a7b4af869b7bd1e2f346d09523a9e4",
        "snapshot": "836d2a1adceabcc910cf8fe4027e29e449c706921a391229e370779144e027df",
    },
    "bup-1": {
        "chrome": "bdeef8074666e09d82c04fa55996547f3e35a19c93b8b04b35a186bcf497d4a4",
        "jsonl": "684853c5b2f887ad9897b543b636d2ce04e7aef7e6767b04e67388505bb42637",
        "collapsed": "000ea602f88ed6688d8061f535003d2862717324cad802d07dd37eae7cec651f",
        "snapshot": "9c3194e931734599a568d1b3257f22bede30d3ca7e5ef3ec6438daf446b20b26",
    },
    "bup-2": {
        "chrome": "e7bf897b046edcafd9428681f72292289193534ebc0d268ed99e389d33bffd48",
        "jsonl": "b5088ba4ca74851a0e618984aa21c9c8d01ecb946f08489e9a23f4a8aa993633",
        "collapsed": "091a46fd031cb4954b7002d5f126ee0e7ce80a4cbdf01bcae9f57d65fcb18adf",
        "snapshot": "8694c992e95c04198e13f03a923f6399d2b076d292fdc0fdbf3af9d9faf37afc",
    },
    "lcp-2": {
        "chrome": "15e15f960dc30a32553fdceebbafa9d94d70f6587c29a523c3229e5d12edf3bd",
        "jsonl": "af831756f3f5e8c6715511f48a12622b8964c6db570cf2944198261cc4d72bf9",
        "collapsed": "f7236aea58685909a1604de8cd007497196b176b2c04e2b0ff684b7daf7115ba",
        "snapshot": "6abceb650e061bd7c496d2250822e67dafec526fded41b3f5cafdb520fc675de",
    },
    "lcp-3": {
        "chrome": "4fd99a2dfcff387e5bd676f350bec3f1bf087617dc0a762573fcf70dc53ca346",
        "jsonl": "9674a112f76981dcdda80bcedcebdb1c2df94c0b235c8515ad23cb6c7762bad4",
        "collapsed": "5202333c8db36dd97137a29fbec73529586dc8a99e4c6cba273131a420bff016",
        "snapshot": "1e1bbfacc1da77b4d0d075b809e531423f5bab42f997a27f8af5efcb55c0c931",
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
