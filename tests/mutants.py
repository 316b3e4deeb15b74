"""Mutation check: every listed mutant of ``src/`` must fail its named tests.

    python tests/mutants.py

Each entry of ``MUTANTS`` is (file under ``src/entroute``, exact source text,
replacement, tests to run). For each entry the script copies ``src/`` to a
temporary directory, replaces the text there and runs only the entry's tests
against that copy, in a fresh Python process, one mutant at a time. The run
fails if a mutant's tests pass (the mutant survives) or if an entry's text
no longer occurs exactly once in its file.

``EQUIVALENT`` lists mutants that are equivalent, or that no test catches,
each with its reason. They are not run, but their texts must still match, so
the list follows the code. The whole check takes under two minutes.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

MUTANTS = [
    (
        "generation.py",
        "cap_max = max(1, round(2.0 * avg_capacity - 1.0))",
        "cap_max = max(2, round(2.0 * avg_capacity - 1.0))",
        ["tests/test_generation.py::TestGenerateTopology"],
    ),
    (
        "generation.py",
        "if len(links) == sum(counts):",
        "if len(links) >= sum(counts) - 1:",
        ["tests/test_generation.py::TestFullGraphReuse::test_one_failed_attempt_builds_a_fresh_graph"],
    ),
    (
        "generation.py",
        "return full.copy()",
        "return full",
        ["tests/test_generation.py::TestFullGraphReuse::test_a_claimed_path_stays_in_its_own_run"],
    ),
    (
        "rng.py",
        "threshold = _MASK64 + 1 - ((_MASK64 + 1) % n)",
        "threshold = 2**64",
        ["tests/test_rng.py::test_randrange_rejects_a_word_at_its_threshold"],
    ),
    (
        "routing.py",
        "(st_min_cut(work, *demands[i], flow=flows[i]).flexibility, i)",
        "(st_min_cut(work, *demands[i], flow=flows[i]).flexibility, -i)",
        ["tests/test_golden.py"],
    ),
    (
        "routing.py",
        "if (cuts is not None and True not in allocated\n",
        "if (cuts is not None\n",
        ["tests/test_routing.py::TestFullGraphCutMemo::test_a_claimed_link_adds_no_entry"],
    ),
    (
        "routing.py",
        "                flow[lid] = unit\n",
        "                pass\n",
        ["tests/test_routing.py::TestFullGraphCutMemo::test_cold_and_warm_calls_match_the_twin"],
    ),
    (
        "routing.py",
        "key = (src, dst)",
        "key = src",
        ["tests/test_routing.py::TestFullGraphCutMemo::test_cold_and_warm_calls_match_the_twin"],
    ),
    (
        "routing.py",
        "            and flow.count(0) == len(flow) and ",
        "            and ",
        ["tests/test_routing.py::TestFullGraphCutMemo::test_a_resumed_flow_adds_no_entry"],
    ),
    (
        "routing.py",
        " and type(sum(flow)) is int):",
        "):",
        ["tests/test_routing.py::TestFullGraphCutMemo::test_a_flow_of_float_zeros_computes_warm_as_cold"],
    ),
    (
        "routing.py",
        "rng.substream(i).words()",
        "rng.substream(i + 1).words()",
        [
            "tests/test_schedulers.py::TestRmpsa::test_one_substream_per_demand",
            "tests/test_end_to_end.py::test_run_single_matches_the_reference",
        ],
    ),
    (
        "routing.py",
        "if not 0 <= demand < len(schedule.paths):",
        "if not demand < len(schedule.paths):",
        ["tests/test_routing.py::TestAllocatePath::test_demand_index_outside_the_schedule_rejected"],
    ),
    (
        "cli.py",
        "            yield sys.stdout\n            sys.stdout.flush()\n",
        "            yield sys.stdout\n",
        ["tests/test_cli.py::test_unwritable_stdout_exit_code"],
    ),
    (
        "cli.py",
        "os.dup2(null.fileno(), sys.stdout.fileno())",
        "pass",
        ["tests/test_cli.py::test_full_device_exits_2_without_traceback"],
    ),
    (
        "routing.py",
        'raise InvalidParameterError(f"demand {i}: {exc}") from None',
        "raise",
        ["tests/test_schedulers.py::test_malformed_demands_rejected"],
    ),
    (
        "routing.py",
        "compress(claimed, map(flow.__getitem__, claimed))",
        "()",
        ["tests/test_schedulers.py::TestMcsaAgainstReference"],
    ),
    (
        "routing.py",
        "compress(claimed, map(flow.__getitem__, claimed))",
        "compress(claimed, [flow[lid] for lid in claimed])",
        ["tests/test_schedulers.py::TestMcsaAgainstReference"],
    ),
    (
        "routing.py",
        "while value < bound:",
        "while value < bound - 1:",
        [
            "tests/test_routing.py::test_menger_equivalence_small_graphs",
            "tests/test_routing.py::test_flexibility_matches_networkx",
        ],
    ),
    (
        "routing.py",
        "if sign > 0 and y == tail:",
        "if False:",
        [
            "tests/test_routing.py::TestStMinCutWarmFlow"
            "::test_circulation_through_the_claimed_link_keeps_its_value"
        ],
    ),
    (
        "network.py",
        "            if u == v:\n                raise InvalidParameterError(f\"self-loop",
        "            if False:\n                raise InvalidParameterError(f\"self-loop",
        ["tests/test_network.py"],
    ),
    (
        "network.py",
        "            if not 0 < distance < inf:\n",
        "            if False:\n",
        ["tests/test_network.py"],
    ),
    (
        "network.py",
        "            if u > v:\n                u, v = v, u\n",
        "",
        ["tests/test_network.py"],
    ),
    (
        "network.py",
        "if type(link) is not PhysicalLink:",
        "if True:",
        ["tests/test_network.py"],
    ),
    (
        "network.py",
        "                link = None  # not canonical: rebuilt below\n",
        "",
        ["tests/test_network.py::test_canonical_links_are_stored_as_they_are"],
    ),
    (
        "errors.py",
        "return float(value)",
        "return value",
        [
            "tests/test_network.py::TestSerializerOracle::test_hand_built_distances",
            "tests/test_harness.py::TestExperimentConfig::test_real_fields_are_stored_as_floats",
        ],
    ),
    (
        "generation.py",
        "if (next_u64() >> 11) * 2.0**-53 < p_success:",
        "if (next_u64() >> 11) * 2.0**-53 <= p_success:",
        ["tests/test_generation.py::test_a_draw_equal_to_the_success_probability_fails"],
    ),
    (
        "routing.py",
        "while word >= 2**64 - 2**64 % (i + 1):",
        "while False:",
        [
            "tests/test_schedulers.py::TestFcfsBaselinesAgainstReference"
            "::test_random_search_rejects_a_word_at_its_threshold"
        ],
    ),
    (
        "routing.py",
        "                for y in ffront:\n",
        "                for y in reversed(ffront):\n",
        [
            "tests/test_routing.py::TestShortestPath",
            "tests/test_routing.py::TestPathKernelsAgainstReference",
        ],
    ),
    (
        "routing.py",
        "                            meet = y\n                            break\n",
        "                            meet = y\n",
        [
            "tests/test_routing.py::TestShortestPath",
            "tests/test_routing.py::TestPathKernelsAgainstReference",
        ],
    ),
    (
        "routing.py",
        "    via[src] = (src, -1)\n    stack = [src]\n",
        "    stack = [src]\n",
        ["tests/test_schedulers.py::TestFcfsBaselinesAgainstReference::test_rmpsa"],
    ),
    (
        "rng.py",
        "self._state = (self._state + count * _GOLDEN) & _MASK64",
        "self._state = (self._state + (count + 1) * _GOLDEN) & _MASK64",
        [
            "tests/test_rng.py::test_words_equal_next_u64",
            "tests/test_schedulers.py::TestFcfsBaselinesAgainstReference::test_rmpsa",
        ],
    ),
    (
        "harness.py",
        "windows = [(float(c), 0, c) for c in checkpoints]",
        "windows = [(float(c), 0, c - 1) for c in checkpoints]",
        ["tests/test_end_to_end.py::test_cumulative_iterations_sweep_matches_the_reference"],
    ),
    (
        "harness.py",
        "windows.append((value, j * n, (j + 1) * n))",
        "windows.append((value, j * n, (j + 1) * n - 1))",
        ["tests/test_end_to_end.py::test_axis_sweep_matches_the_reference"],
    ),
    (
        "harness.py",
        "if any(v != int(v) or v < 1 for v in config.sweep_values):",
        "if False:",
        ["tests/test_harness.py::TestRunSweep::test_bad_last_checkpoint_fails_before_any_instance"],
    ),
    (
        "routing.py",
        "if type(self.nodes) is not tuple or type(self.edges) is not tuple:",
        "if False:",
        ["tests/test_routing.py::test_path_reads_nodes_or_links_given_as_other_iterables_once"],
    ),
    (
        "harness.py",
        "RngStream(hash64(child, _STREAM_RMPSA))",
        "RngStream(hash64(child, _STREAM_DEMANDS))",
        ["tests/test_end_to_end.py::test_run_single_matches_the_reference"],
    ),
    (
        "harness.py",
        'if "rmpsa" in config.algorithms else None',
        "if True else None",
        ["tests/test_harness.py::TestRunSingle::test_rmpsa_stream_derived_only_for_rmpsa"],
    ),
    (
        "harness.py",
        "RngStream(hash64(child, _STREAM_TOPOLOGY))",
        "RngStream(hash64(child, _STREAM_ENTANGLEMENT))",
        ["tests/test_end_to_end.py::test_run_single_matches_the_reference"],
    ),
    (
        "harness.py",
        "RngStream(hash64(child, _STREAM_ENTANGLEMENT))",
        "RngStream(hash64(child, _STREAM_DEMANDS))",
        ["tests/test_end_to_end.py::test_run_single_matches_the_reference"],
    ),
    (
        "harness.py",
        "RngStream(hash64(child, _STREAM_DEMANDS))",
        "RngStream(hash64(child, _STREAM_TOPOLOGY))",
        ["tests/test_end_to_end.py::test_run_single_matches_the_reference"],
    ),
    (
        "harness.py",
        "RngStream(hash64(seed, _STREAM_DEMANDS))",
        "RngStream(hash64(seed, _STREAM_TOPOLOGY))",
        ["tests/test_harness.py::TestGridCheck::test_demand_columns_come_from_substream_2"],
    ),
    (
        "harness.py",
        "return text if float(text) == float(value) else repr(float(value))",
        "return text",
        ["tests/test_harness.py::TestCsvWriters::test_sweep_labels_read_back_as_their_values"],
    ),
    (
        "harness.py",
        "algorithms = sorted(set(config.algorithms))",
        "algorithms = list(dict.fromkeys(config.algorithms))",
        ["tests/test_end_to_end.py::test_run_single_matches_the_reference"],
    ),
    (
        "generation.py",
        "if alpha < 0:",
        "if alpha < -1:",
        ["tests/test_generation.py::TestGenerateEntanglement::test_rejects_non_finite_alpha"],
    ),
    (
        "generation.py",
        "\ndef generate_grid(\n",
        "\n@functools.lru_cache()\ndef generate_grid(\n",
        ["tests/test_generation.py::TestGenerateGrid::test_checks_run_before_the_cache"],
    ),
    (
        "metrics.py",
        "(2 * hops) / capacity",
        "hops / capacity",
        ["tests/test_metrics.py"],
    ),
    (
        "metrics.py",
        "hops / paths if paths else 0.0",
        "hops / paths if paths else 1.0",
        ["tests/test_metrics.py"],
    ),
    (
        "harness.py",
        "k=schedule.k,",
        "k=schedule.total_paths,",
        ["tests/test_end_to_end.py::test_run_single_matches_the_reference"],
    ),
]

EQUIVALENT = [
    (
        "routing.py",
        "            if g_x > label[x]:  # type: ignore[operator]\n"
        "                continue  # superseded by a shorter path\n",
        "            if g_x > label[x] or x in closed:  # type: ignore[operator]\n"
        "                continue  # superseded by a shorter path\n"
        "            closed.add(x)\n",
        "DMPSA's A* without re-opens (with `closed = set()` before "
        "label_up_to): the exactness argument in _min_distance_path's "
        "docstring needs re-opens, but 60,000 random cases did not catch "
        "this mutant, so no test pins them",
    ),
    (
        "harness.py",
        "RngStream(hash64(seed, _STREAM_ENTANGLEMENT))",
        "RngStream(hash64(seed, _STREAM_DEMANDS))",
        "the grid check's entanglement stream: it generates at alpha 0, where "
        "every attempt succeeds whatever word it draws",
    ),
]


def _unmatched(file: str, text: str) -> str | None:
    """None if ``text`` occurs exactly once in ``src/entroute/file``, else why not."""
    count = (SRC / "entroute" / file).read_text().count(text)
    if count != 1:
        return f"{file}: the mutant's text occurs {count} times, not once: {text!r}"
    return None


def _survives(file: str, text: str, replacement: str, tests: list[str]) -> str | None:
    """Run one mutant; a message if it survives, or if its tests do not run."""
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch) / "src"
        shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
        path = copy / "entroute" / file
        path.write_text(path.read_text().replace(text, replacement))
        env = dict(os.environ, PYTHONPATH=str(copy), PYTHONDONTWRITEBYTECODE="1")
        # Exit 99 if the child imports some other entroute than the mutated copy.
        script = (
            "import sys, entroute, pytest\n"
            f"if not entroute.__file__.startswith({str(copy)!r}): sys.exit(99)\n"
            "sys.exit(pytest.main(['-q', '-x', '-p', 'no:cacheprovider', *sys.argv[1:]]))\n"
        )
        returncode = subprocess.run(
            [sys.executable, "-c", script, *tests],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        ).returncode
    # pytest exits 1 when a test failed: the mutant is killed.
    if returncode == 0:
        return f"{file}: mutant survived {' '.join(tests)}: {text!r} -> {replacement!r}"
    if returncode != 1:
        return f"{file}: exit {returncode}, the tests did not run: {' '.join(tests)}"
    return None


def main() -> int:
    problems = [
        f"equivalent mutant: {problem}"
        for file, text, _, _ in EQUIVALENT
        if (problem := _unmatched(file, text))
    ]
    for index, (file, text, replacement, tests) in enumerate(MUTANTS, 1):
        problem = _unmatched(file, text) or _survives(file, text, replacement, tests)
        print(f"mutant {index}/{len(MUTANTS)} in {file}: {'FAIL' if problem else 'killed'}", flush=True)
        if problem:
            problems.append(problem)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
