"""compare.py verdicts."""

import json

from perf import compare
from perf.metrics import END_TO_END


def record(workload="scan_analytics", seed=11, digest="d", failed=0,
           **values):
    metrics = {name: {"value": 100.0, "unit": unit}
               for name, (unit, _, _) in END_TO_END.items()}
    for name, value in values.items():
        metrics[name]["value"] = value
    return {"workload": workload, "seed": seed, "traced": False,
            "failed": failed, "virt_digest": digest, "metrics": metrics}


def verdicts(base, new, **kwargs):
    rows, problems = compare.compare(
        {"scan_analytics": base}, {"scan_analytics": new}, **kwargs)
    return {row[1]: row[5] for row in rows}, problems


def test_same_numbers_are_unchanged():
    base = [record() for _ in range(5)]
    outcome, problems = verdicts(base, [record() for _ in range(5)],
                                 host_only=True)
    assert set(outcome.values()) == {"unchanged"} and not problems


def test_worse_beyond_the_bound_fails():
    base = [record(host_ops_per_s=100.0 + i) for i in range(5)]
    slow = [record(host_ops_per_s=70.0 + i) for i in range(5)]
    outcome, problems = verdicts(base, slow)
    assert outcome["host_ops_per_s"] == "worse"
    assert any("host_ops_per_s worse" in p for p in problems)
    # "higher is better" is honoured: faster is not worse.
    fast = [record(host_ops_per_s=130.0 + i) for i in range(5)]
    outcome, problems = verdicts(base, fast)
    assert outcome["host_ops_per_s"] == "improved" and not problems


def test_wide_spread_is_unresolved_not_unchanged():
    noisy = [record(setup_s=value) for value in (50, 80, 100, 120, 150)]
    outcome, _ = verdicts(noisy, noisy)
    assert outcome["setup_s"] == "unresolved"


def test_host_only_catches_a_moved_virtual_clock():
    base = [record(digest="aaaa")]
    _, problems = verdicts(base, [record(digest="bbbb")], host_only=True)
    assert any("virt_digest differs" in p for p in problems)
    _, problems = verdicts(base, [record(digest="bbbb")])
    assert not problems
    _, problems = verdicts(base, [record(digest="bbbb", seed=12)],
                           host_only=True)
    assert not problems


def test_failed_ops_fail_the_comparison(tmp_path, capsys):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps([record(), record()]))
    bad.write_text(json.dumps(record(failed=3)))
    assert compare.main(["--base", str(good), "--new", str(good)]) == 0
    assert compare.main(["--base", str(good), "--new", str(bad)]) == 1
    assert "failed ops" in capsys.readouterr().out
