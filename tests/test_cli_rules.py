"""Every pair of a verb's options either runs with both options honoured
or is refused, by name, from the verb's ``RULES`` table.

The table is read three ways: ``--help`` lists it, a refused pair exits
2 naming both options (and, under ``--json``, as a ``repro-error-v1``
document), and the pair tests below take it as the list of pairs that
may not run.  A pair that runs is compared with its two single-option
runs: every outcome that only one of the options changes (a run setting,
the trace digest, a file written, the replay result, the output format)
must be that option's, and every outcome neither changes must be the
plain run's.  An option a pair silently drops fails that comparison.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import itertools
import json
import re

import pytest

from repro.cli import build_parser, main
from repro.cli.common import options_of


def _verb_parsers() -> dict[str, argparse.ArgumentParser]:
    found = {}

    def walk(parser: argparse.ArgumentParser, words: list[str]) -> None:
        if parser.get_default("verb") is not None:
            found[" ".join(words)] = parser
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, sub in action.choices.items():
                    walk(sub, [*words, name])

    walk(build_parser(), [])
    return found


PARSERS = _verb_parsers()
RULE_CASES = [
    (verb, rule, other)
    for verb, parser in PARSERS.items()
    for rule in parser.get_default("verb").RULES
    for other in rule.others
]


def _sample(action: argparse.Action) -> list[str]:
    """Argv that gives ``action`` a value other than its default."""
    if action.nargs == 0:
        values = []
    elif action.choices:
        values = [next(c for c in action.choices if c != [])]
    elif action.type in (int, float):
        values = ["2"]
    else:
        values = ["somewhere"]
    return [*action.option_strings[-1:], *values]


def _requirements(rules, options) -> set[str]:
    """``options`` plus every option a requires-rule makes them need."""
    return set(options) | {rule.others[0] for rule in rules
                           if rule.requires and rule.option in options}


def _table_refuses(rules, options) -> bool:
    return any(not rule.requires and rule.option in options
               and rule.unless not in options
               and any(other in options for other in rule.others)
               for rule in rules)


def _honoured(base: dict, one: dict, two: dict, pair: dict, *,
              merge: bool) -> None:
    """Each option still changes the outcome beside the other; with
    ``merge``, every outcome only one option changes is that option's
    and every outcome neither changes is the plain run's."""
    def seen(run: dict) -> dict:
        return {k: v for k, v in run.items() if k not in ("options", "error")}

    for single, other in ((one, two), (two, one)):
        assert seen(single) != seen(base), single["options"]
        assert (seen(pair) != seen(other)
                or other["options"] == pair["options"]), pair["options"]
    if not merge:
        return
    for key in base.keys() | one.keys() | two.keys() | pair.keys():
        changed = [run.get(key) for run in (one, two)
                   if run.get(key) != base.get(key)]
        if len(changed) < 2:
            want = changed[0] if changed else base.get(key)
            assert pair.get(key) == want, (
                f"{key}: {pair.get(key)!r}, want {want!r}")


def _run_quietly(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_pair(rules, pair, runs, *, merge: bool = True) -> None:
    """``runs(options)`` -> outcome of the command with those options
    (and ``"options"``: them, with what they require)."""
    invoked = _requirements(rules, pair)
    result = runs(invoked)
    if result["exit"] == 2:
        named = [option for option in invoked if option in result["error"]]
        assert len(named) >= 2, result["error"]
        return
    assert not _table_refuses(rules, invoked), (
        f"{pair} is in the table but ran")
    assert result["exit"] == 0, result
    singles = [runs(_requirements(rules, [option])) for option in pair]
    for single in singles:
        assert single["exit"] == 0, single
    _honoured(runs(set()), *singles, result, merge=merge)


class TestTable:
    def test_rules_name_options_of_their_verb(self):
        for verb, parser in PARSERS.items():
            names = options_of(parser)
            for rule in parser.get_default("verb").RULES:
                assert {rule.option, *rule.others} <= names.keys(), verb
                assert rule.unless is None or rule.unless in names, verb
                assert not rule.requires or len(rule.others) == 1

    def test_help_lists_every_rule(self):
        for verb, parser in PARSERS.items():
            text = " ".join(parser.format_help().split())
            for rule in parser.get_default("verb").RULES:
                line = " ".join(f"{rule.describe()}: {rule.reason}".split())
                assert line in text, verb

    @pytest.mark.parametrize(
        ("verb", "rule", "other"), RULE_CASES,
        ids=[f"{verb}:{rule.option}:{other}"
             for verb, rule, other in RULE_CASES])
    def test_rule_refuses_by_name(self, verb, rule, other):
        parser = PARSERS[verb]
        names = options_of(parser)
        given = [rule.option] if rule.requires else [rule.option, other]
        required = [name for name, action in names.items()
                    if action.required and action.nargs != "*"
                    and name not in given]
        argv = [*verb.split()]
        for name in [*required, *given]:
            argv += _sample(names[name])
        if "--json" in names and "--json" not in given:
            argv.append("--json")
        code, out, err = _run_quietly(argv)
        assert code == 2
        assert err.startswith("repro: error:") and "Traceback" not in err
        assert rule.option in err and other in err, err
        if "--json" in names:
            doc = json.loads(out)
            assert doc["schema"] == "repro-error-v1"
            assert doc["error"] == "Refused"
            assert doc["options"] == [rule.option, other]


# ----------------------------------------------------------------------
# repro run: real runs of a small MatMul
# ----------------------------------------------------------------------

RUN = ["run", "MatMul", "--cells", "4"]
#: One value for each ``repro run`` option (``{tmp}``: a directory of
#: the invocation's own; ``{snap}``: a checkpoint of the plain run).
RUN_SAMPLES = {
    "--cells": ["--cells", "8"],
    "--paper-scale": ["--paper-scale"],
    "--trace": ["--trace", "{tmp}/t.trc"],
    "--stream": ["--stream", "{tmp}/s.trc"],
    "--no-replay": ["--no-replay"],
    "--sanitize": ["--sanitize"],
    "--trace-capacity": ["--trace-capacity", "100000"],
    "--shards": ["--shards", "2"],
    "--observe": ["--observe"],
    "--checkpoint-dir": ["--checkpoint-dir", "{tmp}/ck"],
    "--checkpoint-every": ["--checkpoint-every", "2"],
    "--resume-from": ["--resume-from", "{snap}"],
    "--json": ["--json"],
}
RUN_RULES = PARSERS["run"].get_default("verb").RULES
_SPEEDUPS = re.compile(r"AP1000\+ ([\d.]+), AP1000/SuperSPARC ([\d.]+)")


@pytest.fixture(scope="module")
def run_outcome(tmp_path_factory):
    from repro.apps.workloads import WORKLOADS, Workload
    from repro.faults.chaos import trace_digest
    from repro.trace.io import load_trace

    root = tmp_path_factory.mktemp("run-pairs")
    snap = root / "snap"
    outcomes: dict[tuple[str, ...], dict] = {}
    calls = []
    real_run = Workload.run

    def recording(self, **kwargs):
        run = real_run(self, **kwargs)
        calls.append((kwargs, trace_digest(run.trace)))
        return run

    def outcome(options) -> dict:
        key = tuple(sorted(options))
        if key in outcomes:
            return outcomes[key]
        tmp = root / str(len(outcomes))
        tmp.mkdir()
        argv = [*RUN] + [arg.format(tmp=tmp, snap=snap) for option in key
                         for arg in RUN_SAMPLES[option]]
        calls.clear()
        code, out, err = _run_quietly(argv)
        result = {"exit": code, "error": err, "options": key}
        if code == 0:
            kwargs, digest = calls[-1]
            settings = dataclasses.asdict(kwargs.pop("config"))
            result.update({f"config.{k}": v for k, v in settings.items()},
                          **kwargs, digest=digest, json="--json" in key)
            if "--json" in key:
                found = json.loads(out)["speedups_vs_ap1000"]
                speedups = found and found.values()
            else:
                found = _SPEEDUPS.search(out)
                speedups = found and found.groups()
            result["speedups"] = speedups and tuple(
                f"{float(v):.2f}" for v in speedups)
            for name, path in (("trace_file", tmp / "t.trc"),
                               ("stream_file", tmp / "s.trc")):
                result[name] = (path.exists() and trace_digest(
                    load_trace(path)) == digest)
            result = {k: str(v).replace(str(tmp), "{tmp}")
                      for k, v in result.items()}
            result.update(exit=code, options=key)
        outcomes[key] = result
        return result

    with pytest.MonkeyPatch.context() as patch:
        # --paper-scale on a problem the size of the default one.
        patch.setitem(WORKLOADS, "MatMul", dataclasses.replace(
            WORKLOADS["MatMul"], paper_pes=4, paper_params={"n": 32}))
        code, _, err = _run_quietly([*RUN, "--no-replay", "--checkpoint-dir",
                                     str(snap), "--checkpoint-every", "1"])
        assert code == 0, err
        patch.setattr(Workload, "run", recording)
        yield outcome


def test_run_samples_cover_every_option():
    names = options_of(PARSERS["run"]).keys() - {"-h", "--help", "APP"}
    assert names == RUN_SAMPLES.keys()


@pytest.mark.parametrize("pair", list(itertools.combinations(RUN_SAMPLES, 2)),
                         ids="+".join)
def test_run_option_pair(pair, run_outcome):
    _assert_pair(RUN_RULES, pair, run_outcome)


# ----------------------------------------------------------------------
# repro chaos: what each option hands the sweep
# ----------------------------------------------------------------------

CHAOS_SAMPLES = {
    "APP": ["MatMul"],
    "--smoke": ["--smoke"],
    "--seed": ["--seed", "7"],
    "--plan": ["--plan", "{plan}"],
    "--cells": ["--cells", "4"],
    "--no-check": ["--no-check"],
    "--json": ["--json"],
    "--recover": ["--recover"],
    "--snapshot-dir": ["--snapshot-dir", "{tmp}/snaps"],
}
CHAOS_RULES = PARSERS["chaos"].get_default("verb").RULES


class _Report:
    ok, diverged = True, False

    def summary(self) -> str:
        return ""

    def to_dict(self) -> dict:
        return {}


@pytest.fixture
def chaos_outcome(tmp_path, monkeypatch):
    from repro.faults import chaos

    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"name": "mini", "seed": 9,
                                "drop_rate": 0.05}))
    calls = []

    def sweep(name):
        def record(apps=None, plans=None, **kwargs):
            kwargs["log"] = kwargs["log"] is not None
            calls.append({
                "sweep": name, "apps": apps,
                "plans": tuple((p.name, p.seed) for p in plans),
                **{k: str(v) for k, v in kwargs.items()}})
            return _Report()
        return record

    monkeypatch.setattr(chaos, "chaos_sweep", sweep("chaos"))
    monkeypatch.setattr(chaos, "recover_sweep", sweep("recover"))

    def outcome(options) -> dict:
        argv = ["chaos"] + [arg.format(tmp=tmp_path, plan=plan)
                            for option in sorted(options)
                            for arg in CHAOS_SAMPLES[option]]
        calls.clear()
        code, _, err = _run_quietly(argv)
        return {"exit": code, "error": err, "options": sorted(options),
                **(calls[-1] if calls else {})}

    return outcome


def test_chaos_samples_cover_every_option():
    names = options_of(PARSERS["chaos"]).keys() - {"-h", "--help"}
    assert names == CHAOS_SAMPLES.keys()


@pytest.mark.parametrize("pair",
                         list(itertools.combinations(CHAOS_SAMPLES, 2)),
                         ids="+".join)
def test_chaos_option_pair(pair, chaos_outcome):
    # --recover switches sweeps, and --smoke / --seed mean something
    # else to each, so outcomes are not merged: each option must only
    # still change what the sweep is handed.
    _assert_pair(CHAOS_RULES, pair, chaos_outcome, merge=False)


def test_chaos_recover_takes_seed_beside_plan(chaos_outcome):
    """The recover sweep's unfaulted case takes its kill site from
    --seed, so --plan does not refuse --seed there."""
    plan = chaos_outcome({"--recover", "--plan"})
    both = chaos_outcome({"--recover", "--plan", "--seed"})
    assert both["exit"] == 0, both["error"]
    assert both["sweep"] == "recover" and both["plans"] == plan["plans"]
    assert (plan["seed"], both["seed"]) == ("1994", "7")


def test_top_refuses_preset_beside_a_bench_artifact(tmp_path):
    from repro.bench.schema import SCHEMA_NAME

    artifact = tmp_path / "BENCH_x.json"
    artifact.write_text(json.dumps({"schema": SCHEMA_NAME}))
    code, out, err = _run_quietly(["top", str(artifact), "--preset",
                                   "ap1000", "--json"])
    assert code == 2 and "--preset" in err and "TRACE" in err, err
    assert json.loads(out)["options"] == ["--preset", "TRACE"]


def test_resume_command_printed_on_an_interrupt_completes(tmp_path, capsys):
    """It repeats every option but those the table refuses beside
    --resume-from, and following it finishes a verified run that keeps
    checkpointing."""
    import shlex

    from repro.ckpt.policy import request_interrupt
    from repro.cli.common import EXIT_RESUMABLE

    ckpts = tmp_path / "ck"
    request_interrupt()
    assert main([*RUN, "--sanitize", "--no-replay", "--trace",
                 str(tmp_path / "t.trc"), "--checkpoint-dir", str(ckpts),
                 "--checkpoint-every", "1"]) == EXIT_RESUMABLE
    line = capsys.readouterr().out.split("resume with: ")[1].strip()
    argv = shlex.split(line)
    assert argv[:2] == ["repro", "run"] and "--sanitize" not in argv
    assert argv[argv.index("--checkpoint-dir") + 1] == str(ckpts)
    assert argv[argv.index("--checkpoint-every") + 1] == "1"
    assert "--trace" in argv and "--resume-from" in argv
    taken = set(ckpts.iterdir())
    assert main(argv[1:]) == 0
    assert "VERIFIED" in capsys.readouterr().out
    assert set(ckpts.iterdir()) > taken


def test_command_line_quotes_an_app_name_with_a_space():
    import shlex

    from repro.cli.common import command_line

    parser = PARSERS["run"]
    args = parser.parse_args(["TC st", "--cells", "4", "--json"])
    assert shlex.join(command_line(args, parser, drop=("--json",))) == (
        "repro run 'TC st' --cells 4")
