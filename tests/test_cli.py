"""Command-line behavior: output formats, exit codes, and reduction round trips."""

import ast
import gc
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from test_api import PUBLIC
from test_conformance import no_child_left
from test_gambles import FAULTS, MIXED, generated, levels, prospect_entry, unnormalized

import likelihood_gambles
from likelihood_gambles import _fork, binomial, cli, gambles
from likelihood_gambles.cli import main
from likelihood_gambles.gambles import (
    GambleError,
    dump_gamble,
    flatten,
    gamble_to_json,
    load_gamble,
)
from likelihood_gambles.pricing import price

TWO_COINS = {
    "prospects": [
        {"likelihood": 1.0, "reward": {"constant": 0.5}},
        {"likelihood": 0.8, "reward": {"constant": 0.4}},
    ]
}

NESTED = {
    "prospects": [
        {
            "likelihood": 1.0,
            "reward": {
                "prospects": [
                    {"likelihood": 1.0, "reward": {"constant": 1.0}},
                    {"likelihood": 0.5, "reward": {"constant": 0.0}},
                ]
            },
        },
        {"likelihood": 0.2, "reward": {"constant": 0.0}},
    ]
}

LIKELIHOOD_COLUMN = [
    "0.0373", "0.1476", "0.2489", "0.3494", "0.4498", "0.5000",
    "0.5502", "0.6506", "0.7511", "0.8524", "0.9627",
]


@pytest.fixture
def gamble_file(tmp_path):
    def write(obj, name="g.json"):
        path = tmp_path / name
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)

    return write


class TestPrice:
    def test_text_rounds_to_four_decimals(self, gamble_file, capsys):
        assert main(["price", "-c", "0", gamble_file(TWO_COINS)]) == 0
        assert capsys.readouterr().out.strip() == "0.5000"

    def test_json_full_precision(self, gamble_file, capsys):
        assert main(["price", "-c", "0.3", "-f", "json", gamble_file({"constant": 0.7})]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(0.7, abs=1e-9)

    def test_rho_flag_is_logit_converted(self, gamble_file, capsys):
        path = gamble_file({"prospects": [
            {"likelihood": 1.0, "reward": {"constant": 1.0}},
            {"likelihood": 1.0, "reward": {"constant": 0.0}},
        ]})
        assert main(["price", "--rho", "0.6", "-f", "json", path]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(0.6, abs=1e-12)

    def test_premium_and_rho_are_exclusive(self, gamble_file):
        with pytest.raises(SystemExit) as exc:
            main(["price", "-c", "0", "--rho", "0.5", gamble_file(TWO_COINS)])
        assert exc.value.code == 2


class TestReduce:
    def test_flattens_and_merges(self, gamble_file, capsys):
        assert main(["reduce", gamble_file(NESTED)]) == 0
        obj = json.loads(capsys.readouterr().out)
        pairs = {(p["likelihood"], p["reward"]["constant"]) for p in obj["prospects"]}
        assert pairs == {(1.0, 1.0), (0.5, 0.0)}

    def test_output_is_a_fixpoint(self, gamble_file, capsys):
        assert main(["reduce", gamble_file(NESTED)]) == 0
        once = capsys.readouterr().out
        assert main(["reduce", gamble_file(json.loads(once), "again.json")]) == 0
        assert capsys.readouterr().out == once


class TestCanonical:
    def test_two_coin_gamble_collapses_to_fair(self, gamble_file, capsys):
        assert main(["canonical", "-c", "0", gamble_file(TWO_COINS)]) == 0
        obj = json.loads(capsys.readouterr().out)
        pairs = {(p["likelihood"], p["reward"]["constant"]) for p in obj["prospects"]}
        assert pairs == {(1.0, 1.0), (1.0, 0.0)}


class TestCompare:
    def test_equal(self, gamble_file, capsys):
        a = gamble_file({"prospects": [
            {"likelihood": 1.0, "reward": {"constant": 1.0}},
            {"likelihood": 0.5, "reward": {"constant": 0.0}},
        ]}, "a.json")
        b = gamble_file({"prospects": [
            {"likelihood": 1.0, "reward": {"constant": 1.0}},
            {"likelihood": 0.5, "reward": {"constant": 0.0}},
        ]}, "b.json")
        assert main(["compare", "-c", "0", a, b]) == 0
        assert capsys.readouterr().out.strip() == "="

    def test_strict_orderings(self, gamble_file, capsys):
        better = gamble_file({"prospects": [
            {"likelihood": 1.0, "reward": {"constant": 1.0}},
            {"likelihood": 0.1, "reward": {"constant": 0.0}},
        ]}, "better.json")
        worse = gamble_file({"prospects": [
            {"likelihood": 0.1, "reward": {"constant": 1.0}},
            {"likelihood": 1.0, "reward": {"constant": 0.0}},
        ]}, "worse.json")
        assert main(["compare", "-c", "0", better, worse]) == 0
        assert capsys.readouterr().out.strip() == ">"
        assert main(["compare", "-c", "0", worse, better]) == 0
        assert capsys.readouterr().out.strip() == "<"

    def test_constants_stay_ordered_at_a_large_premium(self, gamble_file, capsys):
        # At c = 30 both vectors sit far down the right border.
        high = gamble_file({"constant": 0.3}, "high.json")
        low = gamble_file({"constant": 0.2}, "low.json")
        assert main(["compare", "-c", "30", high, low]) == 0
        assert capsys.readouterr().out.strip() == ">"

    def test_price_agrees_between_original_and_reduction(self, gamble_file, capsys):
        original = gamble_file(NESTED)
        assert main(["price", "-c", "0.4", "-f", "json", original]) == 0
        p_original = float(capsys.readouterr().out)
        assert main(["reduce", original]) == 0
        reduced = gamble_file(json.loads(capsys.readouterr().out), "reduced.json")
        assert main(["price", "-c", "0.4", "-f", "json", reduced]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(p_original, abs=1e-12)


class TestDemoBinomial:
    def test_full_table_text(self, capsys):
        assert main(["demo-binomial", "-m", "10", "-c", "0"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 12
        for line, expected in zip(lines[1:], LIKELIHOOD_COLUMN):
            assert line.split()[1] == expected

    def test_single_row(self, capsys):
        assert main(["demo-binomial", "-m", "10", "-x", "3", "-c", "0"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[1].split() == ["3", "0.3494", "0.3333", "0.3182", "0.3000"]

    @pytest.mark.parametrize("c", ["-700", "-1.5", "0", "0.3", "700"])
    def test_single_row_is_the_table_row(self, capsys, c):
        for fmt in ("text", "csv", "json"):
            assert main(["demo-binomial", "-m", "40", "-c", c, "-f", fmt]) == 0
            table = capsys.readouterr().out
            for x in (0, 1, 17, 39, 40):
                assert main(["demo-binomial", "-m", "40", "-x", str(x), "-c", c, "-f", fmt]) == 0
                row = capsys.readouterr().out
                if fmt == "json":
                    assert row == json.dumps([json.loads(table)[x]]) + "\n"
                else:
                    lines = table.splitlines()
                    assert row.splitlines() == [lines[0], lines[x + 1]]

    def test_csv_format(self, capsys):
        assert main(["demo-binomial", "-m", "2", "-c", "0", "-f", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "x,likelihood,uniform,jeffreys,novick_hall"
        assert len(lines) == 4

    def test_json_format(self, capsys):
        assert main(["demo-binomial", "-m", "10", "-x", "5", "-f", "json", "-c", "0"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows == [{
            "x": 5,
            "likelihood": pytest.approx(0.5, abs=1e-9),
            "uniform": 0.5,
            "jeffreys": 0.5,
            "novick_hall": 0.5,
        }]

    def test_table_past_twenty_thousand_trials(self, capsys):
        # From m = 23,000 an ulp of lognorm passes B's 1e-12 bound, so each
        # row must take log l(x/m) as exactly 0 to stay on B.
        assert main(["demo-binomial", "-m", "30000", "-f", "csv"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 30_002

    @pytest.mark.parametrize("m", [1, 10, 1000])
    @pytest.mark.parametrize("c", ["-700", "-1", "0", "0.3", "700"])
    def test_streamed_output_is_the_rendered_table(self, capsys, m, c):
        rows = binomial.emit_table(m, float(c))
        for x in (None, 0, m // 2, m):
            expected_rows = rows if x is None else [rows[x]]
            expected = {
                "text": binomial.render_table_text(expected_rows) + "\n",
                "csv": binomial.render_table_csv(expected_rows) + "\n",
                "json": json.dumps([r.to_json() for r in expected_rows]) + "\n",
            }
            for fmt, text in expected.items():
                argv = ["demo-binomial", "-m", str(m), "-c", c, "-f", fmt]
                argv += [] if x is None else ["-x", str(x)]
                assert run_cli(capsys, argv) == (0, text, ""), (fmt, x)

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_an_error_mid_table_leaves_whole_lines(self, capsys, monkeypatch, fmt):
        # The arguments are all checked before the first row, so only a row
        # that fails its own check can stop a table part way.
        m, bad = 10_000, 5_000
        solve = binomial._pairs
        full = run_cli(capsys, ["demo-binomial", "-m", str(m), "-f", fmt])[1]

        def off_b(m, c, xs):
            for x, alpha, beta in solve(m, c, xs):
                yield (x, 0.5, 0.5) if x == bad else (x, alpha, beta)

        monkeypatch.setattr(binomial, "_pairs", off_b)
        code, out, err = run_cli(capsys, ["demo-binomial", "-m", str(m), "-f", fmt])
        assert code == 2
        assert err == (
            "lgamble: error: utility vector must satisfy max(alpha, beta) = 1, got <0.5, 0.5>\n"
        )
        assert out and full.startswith(out)
        if fmt != "json":  # one line per row, each written whole
            assert out.endswith("\n")
            assert 1 < len(out.splitlines()) <= bad + 1

    def test_invalid_count_is_an_input_error(self, capsys):
        assert main(["demo-binomial", "-m", "10", "-x", "11"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["-m", "0"], "trials must be a positive integer, got 0"),
            (["-m", "10", "-x", "-1"], "successes must be an integer in [0, 10], got -1"),
            (["-m", "10", "-x", "11"], "successes must be an integer in [0, 10], got 11"),
            (["-m", "0", "-x", "11", "-c", "800"], "trials must be a positive integer, got 0"),
            (["-m", "10", "-x", "11", "-c", "800"],
             "successes must be an integer in [0, 10], got 11"),
            (["-m", "10", "-c", "800"], "ambiguity premium must satisfy |c| <= 700.0, got 800.0"),
        ],
        ids=["no-trials", "negative-x", "x-past-m", "trials-first", "successes-second",
             "premium-last"],
    )
    def test_arguments_are_checked_in_order(self, capsys, argv, message):
        assert run_cli(capsys, ["demo-binomial", *argv]) == (2, "", f"lgamble: error: {message}\n")

    def test_runs_without_numpy(self):
        # numpy is a test-only dependency: the CLI must import and price
        # without it, which keeps its import cost out of every start-up.
        src = str(Path(likelihood_gambles.__file__).resolve().parents[1])
        script = (
            "import sys\n"
            f"sys.path.insert(0, {src!r})\n"
            "sys.modules['numpy'] = None\n"
            "from likelihood_gambles.cli import main\n"
            "sys.exit(main(['demo-binomial', '-m', '10']))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr
        lines = result.stdout.strip().splitlines()
        assert [line.split()[1] for line in lines[1:]] == LIKELIHOOD_COLUMN


class TestConformanceCommand:
    def test_passing_run_exits_zero(self, capsys):
        code = main(["conformance", "--samples", "25", "--seed", "4", "-c", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "pass" in out and "FAIL" not in out

    def test_json_report(self, capsys):
        code = main(["conformance", "--samples", "10", "--seed", "4", "-f", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(entry["failures"] == 0 for entry in payload)

    def test_failing_run_exits_one(self, capsys, monkeypatch):
        from likelihood_gambles.conformance import ConformanceReport, PropertyResult

        def fake_run(config, c, properties=None, utility_fn=None):
            result = PropertyResult("bounds", samples=5, failures=2, seed=1, counterexample=None)
            return ConformanceReport((result,))

        monkeypatch.setattr("likelihood_gambles.conformance.run_conformance", fake_run)
        assert main(["conformance", "--samples", "5"]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestErrorHandling:
    def test_missing_file(self, capsys):
        assert main(["price", "/nonexistent/gamble.json"]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["price", str(path)]) == 2

    def test_invalid_gamble_payload(self, gamble_file, capsys):
        assert main(["price", gamble_file({"constant": 2.0})]) == 2

    def test_constant_beside_prospects(self, gamble_file, capsys):
        path = gamble_file({"constant": 0.5, "prospects": 3})
        assert main(["price", path]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("lgamble: error:")

    @pytest.mark.parametrize("argv", [
        ["price", "-c", "800"], ["price", "-c", "745"], ["price", "-c", "-701"],
        ["demo-binomial", "-m", "10", "--rho", "1e-320"],
        ["conformance", "--samples", "1", "-c", "1e3"],
    ], ids=["price-800", "price-745", "price-minus-701", "binomial-rho", "conformance"])
    def test_premium_past_the_bound(self, gamble_file, capsys, argv):
        if argv[0] == "price":
            argv = [*argv, gamble_file({"constant": 0.5})]
        assert main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == ""
        assert len(lines) == 1 and lines[0].startswith("lgamble: error:")
        assert "|c| <= 700.0" in lines[0]

    def test_generator_past_the_size_bound(self, capsys):
        argv = ["conformance", "--samples", "1", "--max-depth", "6", "--max-branching", "60"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == ""
        assert len(lines) == 1 and lines[0].startswith("lgamble: error:")
        assert "2**16" in lines[0]

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "likelihood", ["abc", [1], None, "0.5", True, 10**400],
        ids=["string", "array", "null", "numeric-string", "bool", "huge-integer"],
    )
    def test_malformed_likelihood(self, gamble_file, capsys, likelihood):
        path = gamble_file({"prospects": [{"likelihood": likelihood, "reward": {"constant": 0.5}}]})
        assert main(["price", path]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("lgamble: error:")

    def test_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{")
        assert main(["price", str(path)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("lgamble: error:")

    def test_nesting_past_the_decoder_bound(self, tmp_path, capsys):
        # 400 levels nest the JSON 1200 deep, past the decoder's recursion
        # budget; the text is built flat so the test itself never recurses.
        levels = 400
        text = (
            '{"prospects": [{"likelihood": 1.0, "reward": ' * levels
            + '{"constant": 0.5}'
            + "}]}" * levels
        )
        path = tmp_path / "deep.json"
        path.write_text(text, encoding="utf-8")
        bound = f"about {sys.getrecursionlimit() // 3} levels"
        for argv in (["price", str(path)], ["reduce", str(path)],
                     ["compare", str(path), str(path)]):
            assert main(argv) == 2
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("lgamble: error:")
            assert bound in lines[0]


def lgamble_process(argv, **streams) -> subprocess.Popen:
    """Start ``lgamble argv`` in a new interpreter that imports this tree's package."""
    src = str(Path(likelihood_gambles.__file__).resolve().parents[1])
    script = (
        f"import sys\nsys.path.insert(0, {src!r})\n"
        f"from likelihood_gambles.cli import main\nsys.exit(main({argv!r}))\n"
    )
    return subprocess.Popen([sys.executable, "-c", script], **streams)


class TestOutputErrors:
    """A reader that closes stdout early ends the command quietly with 141;
    any other failed write is an error, exit 2 with one line."""

    def closed_after_ten_bytes(self, tmp_path, argv):
        with open(tmp_path / "err", "w+b") as err:
            proc = lgamble_process(argv, stdout=subprocess.PIPE, stderr=err)
            head = proc.stdout.read(10)
            proc.stdout.close()  # the rest of the output meets a closed pipe
            code = proc.wait(timeout=120)
            err.seek(0)
            return code, head, err.read()

    def test_a_closed_pipe_ends_the_table_quietly(self, tmp_path):
        # About 750 KB of CSV, more than a pipe holds, so the write must fail.
        code, head, err = self.closed_after_ten_bytes(
            tmp_path, ["demo-binomial", "-m", "30000", "-f", "csv"])
        assert (code, head, err) == (141, b"x,likeliho", b"")

    @pytest.mark.parametrize("fmt, head", [("text", b"   x  like"), ("json", b'[{"x": 0, ')])
    def test_a_closed_pipe_ends_every_format_quietly(self, tmp_path, fmt, head):
        # The text and JSON tables are larger than the CSV one.
        assert self.closed_after_ten_bytes(
            tmp_path, ["demo-binomial", "-m", "30000", "-f", fmt]) == (141, head, b"")

    def test_a_closed_pipe_ends_reduce_quietly(self, tmp_path):
        wide = {"prospects": [
            prospect_entry(1.0 - i / 400, {"prospects": [
                prospect_entry(1.0 - j / 200, {"constant": (200 * i + j) / 80_000})
                for j in range(200)
            ]})
            for i in range(200)
        ]}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(wide), encoding="utf-8")
        assert path.stat().st_size >= 1 << 20
        code, head, err = self.closed_after_ten_bytes(tmp_path, ["reduce", str(path)])
        assert (code, head, err) == (141, b'{"prospect', b"")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    @pytest.mark.parametrize("trials", ["10", "30000"])
    def test_a_full_device_is_an_error(self, trials):
        with open("/dev/full", "wb") as full:
            proc = lgamble_process(["demo-binomial", "-m", trials, "-f", "csv"],
                                   stdout=full, stderr=subprocess.PIPE)
            _, err = proc.communicate(timeout=120)
        assert proc.returncode == 2
        assert err.decode().splitlines() == ["lgamble: error: [Errno 28] No space left on device"]


# Files whose reduction and price depend on which of 0.0 and -0.0 the leaf
# map keeps, and a constant root, which reduces to itself.
EDGE_FILES = {
    "zero-constants": {"prospects": [
        prospect_entry(1.0, {"constant": -0.0}),
        prospect_entry(0.5, {"prospects": [
            prospect_entry(1.0, {"constant": 0.0}), prospect_entry(0.5, {"constant": 0.4}),
        ]}),
        prospect_entry(0.25, {"constant": 0.0}),
    ]},
    "zero-constants-nested-first": {"prospects": [
        prospect_entry(1.0, {"prospects": [prospect_entry(1.0, {"constant": -0.0})]}),
        prospect_entry(0.5, {"prospects": [
            prospect_entry(1.0, {"constant": 0.0}), prospect_entry(0.5, {"constant": 0.4}),
        ]}),
    ]},
    "zero-likelihoods": {"prospects": [
        prospect_entry(1.0, {"constant": 0.5}),
        prospect_entry(-0.0, {"constant": 0.3}),
        prospect_entry(0.0, {"constant": 0.3}),
    ]},
    "zero-likelihoods-reversed": {"prospects": [
        prospect_entry(2.0, {"constant": 0.5}),
        prospect_entry(0.0, {"constant": 0.3}),
        prospect_entry(1.0, {"prospects": [
            prospect_entry(-0.0, {"constant": 0.3}), prospect_entry(1.0, {"constant": 1.0}),
        ]}),
    ]},
    "constant-root": {"constant": 0.25},
}


class TestLeafMapReads:
    """``price``, ``reduce``, ``canonical`` and ``compare`` read a valid file's
    leaf map straight from the decoded document; the loader reads any other
    file and raises its first error."""

    @pytest.mark.parametrize("name", sorted(EDGE_FILES))
    def test_edge_files_match_the_loaded_gamble(self, gamble_file, capsys, name):
        path = gamble_file(EDGE_FILES[name])
        g = load_gamble(path)
        assert main(["reduce", path]) == 0
        assert capsys.readouterr().out == dump_gamble(flatten(g)) + "\n"
        for c in (0.0, 0.7, -30.0):
            assert main(["price", "-f", "json", f"--premium={c!r}", path]) == 0
            assert capsys.readouterr().out == json.dumps(price(g, c)) + "\n"

    def test_the_first_zero_keys_the_reduction(self, gamble_file, capsys):
        assert main(["reduce", gamble_file(EDGE_FILES["zero-constants"])]) == 0
        assert capsys.readouterr().out == (
            '{"prospects": [{"likelihood": 1.0, "reward": {"constant": -0.0}}, '
            '{"likelihood": 0.25, "reward": {"constant": 0.4}}]}\n'
        )
        assert main(["reduce", gamble_file(EDGE_FILES["zero-likelihoods"])]) == 0
        assert '{"likelihood": -0.0, "reward": {"constant": 0.3}}' in capsys.readouterr().out
        assert main(["reduce", gamble_file(EDGE_FILES["constant-root"])]) == 0
        assert capsys.readouterr().out == '{"constant": 0.25}\n'

    def test_valid_files_never_reach_the_loader(self, gamble_file, capsys, monkeypatch):
        cases = []
        for index, g in enumerate(generated(range(30)) + MIXED):
            if not g.is_constant:
                path = gamble_file(unnormalized(gamble_to_json(g)), f"g{index}.json")
                loaded = load_gamble(path)
                cases.append((path, dump_gamble(flatten(loaded)), json.dumps(price(loaded, 0.4))))

        def loader(obj):
            raise AssertionError("the loader ran on a valid file")

        monkeypatch.setattr(gambles, "gamble_from_json", loader)
        monkeypatch.setattr(cli, "gamble_from_json", loader)
        for path, _, _ in cases:
            assert main(["canonical", "-c", "0.4", path]) == 0  # builds only its two-prospect twin
        capsys.readouterr()

        def built(self, *args, **kwargs):
            raise AssertionError("a prospect was built from a valid file")

        monkeypatch.setattr(gambles.Prospect, "__init__", built)
        for path, reduced, priced in cases:
            assert main(["price", "-c", "0.4", "-f", "json", path]) == 0
            assert capsys.readouterr().out == priced + "\n"
            assert main(["reduce", path]) == 0
            assert capsys.readouterr().out == reduced + "\n"
            assert main(["compare", "-c", "0.4", path, path]) == 0
            assert capsys.readouterr().out == "=\n"

    def test_invalid_files_are_read_by_the_loader(self, gamble_file, capsys, monkeypatch):
        raised = []
        real = gambles.gamble_from_json

        def loader(obj):
            try:
                return real(obj)
            except GambleError as exc:
                raised.append(str(exc))
                raise

        monkeypatch.setattr(cli, "gamble_from_json", loader)
        checked = 0
        for g in generated(range(6)):
            base = unnormalized(gamble_to_json(g))
            for fault in sorted(FAULTS):
                for index in range(sum(1 for _ in levels(base))):
                    obj = json.loads(json.dumps(base))
                    FAULTS[fault](list(levels(obj))[index])
                    path = gamble_file(obj)
                    for argv in (["price", "-f", "json", path], ["reduce", path]):
                        before = len(raised)
                        assert main(argv) == 2
                        assert len(raised) == before + 1
                        assert capsys.readouterr().err == f"lgamble: error: {raised[-1]}\n"
                        checked += 1
        assert checked > 100


@pytest.fixture
def forked_compare(monkeypatch):
    """Make ``compare`` fork for files of any size on two CPUs; record every fork."""
    forks = []
    real_fork = os.fork

    def recording_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(cli, "_MIN_FORK_BYTES", 0)
    monkeypatch.setattr(_fork, "usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", recording_fork)
    return forks


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestForkedCompare:
    """``compare`` reduces ``file2`` in a forked child; what it prints does not change."""

    def one_process(self, capsys, argv):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_MIN_FORK_BYTES", math.inf)
            return run_cli(capsys, argv)

    def test_output_matches_the_one_process_run(self, gamble_file, capsys, forked_compare):
        # A constant 0.5 and a fully ambiguous gamble are equal at c = 0 only.
        ambiguous = {"prospects": [prospect_entry(1.0, {"constant": 1.0}),
                                   prospect_entry(1.0, {"constant": 0.0})]}
        objs = [{"constant": 0.5}, ambiguous] + [EDGE_FILES[name] for name in sorted(EDGE_FILES)]
        objs += [unnormalized(gamble_to_json(g)) for g in generated(range(8)) + MIXED]
        paths = [gamble_file(obj, f"g{index}.json") for index, obj in enumerate(objs)]
        runs = 0
        outputs = set()
        for first, second in zip(paths, paths[1:] + paths[:1]):
            for files in ([first, second], [second, first]):
                for premium in (["-c", "0"], ["-c", "-30"], ["--rho", "0.7"]):
                    argv = ["compare", *premium, *files]
                    expected = self.one_process(capsys, argv)
                    assert expected[0] == 0 and expected[1] in (">\n", "=\n", "<\n")
                    assert run_cli(capsys, argv) == expected
                    outputs.add((*files, premium[0], expected[1]))
                    runs += 1
        assert len(forked_compare) == runs
        assert {output[2:] for output in outputs if output[:2] == (paths[1], paths[0])} == {
            ("-c", "=\n"), ("-c", "<\n"), ("--rho", ">\n")
        }
        assert no_child_left()

    def test_the_child_reads_file2(self, gamble_file, capsys, forked_compare, monkeypatch):
        better = gamble_file({"constant": 0.7}, "better.json")
        worse = gamble_file({"constant": 0.2}, "worse.json")
        parent = os.getpid()
        real = cli._leaves

        def leaves(path):
            assert (os.getpid() == parent) == (path == better)
            return real(path)

        monkeypatch.setattr(cli, "_leaves", leaves)
        assert run_cli(capsys, ["compare", better, worse]) == (0, ">\n", "")
        assert len(forked_compare) == 1
        assert no_child_left()

    def test_a_killed_child_is_replaced_by_a_read_here(self, gamble_file, capsys,
                                                       forked_compare, monkeypatch):
        parent = os.getpid()
        real = cli._leaves

        def leaves(path):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(path)

        monkeypatch.setattr(cli, "_leaves", leaves)
        better = gamble_file({"constant": 0.7}, "better.json")
        worse = gamble_file({"constant": 0.2}, "worse.json")
        assert run_cli(capsys, ["compare", worse, better]) == (0, "<\n", "")
        assert len(forked_compare) == 1
        assert no_child_left()

    def test_a_failed_fork_is_replaced_by_a_read_here(self, gamble_file, capsys, monkeypatch):
        def failing_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(cli, "_MIN_FORK_BYTES", 0)
        monkeypatch.setattr(_fork, "usable_cpus", lambda: 2)
        monkeypatch.setattr(os, "fork", failing_fork)
        better = gamble_file({"constant": 0.7}, "better.json")
        worse = gamble_file({"constant": 0.2}, "worse.json")
        assert run_cli(capsys, ["compare", better, worse]) == (0, ">\n", "")
        assert _fork.run_forked([lambda: 1, lambda: 2, lambda: 3]) == [1, None, None]
        assert no_child_left()

    @pytest.mark.parametrize("premium", [[], ["-c", "800"], ["--rho", "1.5"]],
                             ids=["valid", "premium-past-bound", "rho-out-of-range"])
    def test_a_bad_file1_is_reported_before_file2(self, gamble_file, tmp_path, capsys,
                                                  forked_compare, premium):
        bad = gamble_file({"constant": 2.0}, "bad.json")
        broken = tmp_path / "broken.json"
        broken.write_text("{not json", encoding="utf-8")
        missing = [str(tmp_path / "missing1.json"), str(tmp_path / "missing2.json")]
        for files in ([bad, str(broken)], [str(broken), bad], missing):
            argv = ["compare", *premium, *files]
            code, out, err = run_cli(capsys, argv)
            assert (code, out, err) == self.one_process(capsys, argv)
            _, _, alone = run_cli(capsys, ["reduce", files[0]])
            assert code == 2 and out == "" and err == alone
        assert "missing1.json" in err and "missing2.json" not in err
        assert len(forked_compare) == 2  # a missing file is read here, without a fork
        assert no_child_left()

    @pytest.mark.parametrize("premium", [[], ["-c", "800"]], ids=["valid", "premium-past-bound"])
    def test_a_bad_or_missing_file2_is_read_again_here(self, gamble_file, tmp_path, capsys,
                                                        forked_compare, premium):
        good = gamble_file(TWO_COINS, "good.json")
        bad = gamble_file({"prospects": [prospect_entry("0.5", {"constant": 0.5})]}, "bad.json")
        for second in (bad, str(tmp_path / "missing.json")):
            argv = ["compare", *premium, good, second]
            code, out, err = run_cli(capsys, argv)
            assert (code, out, err) == self.one_process(capsys, argv)
            assert code == 2 and out == ""
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("lgamble: error:")
        assert len(forked_compare) == 1  # a missing file is read here, without a fork
        assert no_child_left()

    def test_a_bad_premium_is_reported_after_both_files(self, gamble_file, capsys, forked_compare):
        argv = ["compare", "-c", "800", gamble_file(TWO_COINS), gamble_file(NESTED, "n.json")]
        code, out, err = run_cli(capsys, argv)
        assert (code, out, err) == self.one_process(capsys, argv)
        assert code == 2 and "|c| <= 700.0" in err
        assert no_child_left()

    def test_an_interrupt_kills_and_reaps_the_child(self, gamble_file, forked_compare, monkeypatch):
        parent = os.getpid()
        real = cli._leaves

        def leaves(path):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)  # still running when the parent is interrupted
            return real(path)

        monkeypatch.setattr(cli, "_leaves", leaves)
        path = gamble_file(TWO_COINS)
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            main(["compare", path, path])
        assert time.monotonic() - started < 30
        assert len(forked_compare) == 1
        assert no_child_left()

    def test_small_files_stay_in_one_process(self, gamble_file, capsys, monkeypatch):
        def no_fork():
            raise AssertionError("compare forked for a small file")

        monkeypatch.setattr(_fork, "usable_cpus", lambda: 2)
        monkeypatch.setattr(os, "fork", no_fork)
        path = gamble_file(TWO_COINS)
        assert cli._MIN_FORK_BYTES > os.path.getsize(path)
        assert run_cli(capsys, ["compare", path, path]) == (0, "=\n", "")

    def test_one_usable_cpu_stays_in_one_process(self, gamble_file, capsys, forked_compare,
                                                  monkeypatch):
        monkeypatch.setattr(_fork, "usable_cpus", lambda: 1)
        path = gamble_file(TWO_COINS)
        assert run_cli(capsys, ["compare", path, path]) == (0, "=\n", "")
        assert forked_compare == []


@pytest.fixture
def collector():
    """Set the cyclic collector's state for one test and restore it afterwards."""
    before = gc.isenabled()

    def set_state(enabled):
        (gc.enable if enabled else gc.disable)()

    yield set_state
    set_state(before)


class TestCollectorPause:
    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["price", "{file}"], 0),
            (["price", "{bad}"], 2),
            (["conformance", "--samples", "5", "--seed", "1"], 0),
        ],
        ids=["price", "input-error", "conformance"],
    )
    def test_state_is_restored(self, gamble_file, collector, capsys, enabled, argv, code):
        paths = {"file": gamble_file(TWO_COINS), "bad": gamble_file({"constant": 2.0}, "bad.json")}
        collector(enabled)
        assert main([arg.format(**paths) for arg in argv]) == code
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_state_is_restored_after_an_uncaught_exception(self, gamble_file, collector,
                                                           monkeypatch, enabled):
        def crash(args):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._COMMANDS, "price", crash)
        collector(enabled)
        with pytest.raises(RuntimeError, match="boom"):
            main(["price", gamble_file(TWO_COINS)])
        assert gc.isenabled() is enabled

    def test_paused_inside_a_command(self, gamble_file, collector, monkeypatch):
        seen = []

        def record(args):
            seen.append(gc.isenabled())
            return 0

        monkeypatch.setitem(cli._COMMANDS, "price", record)
        collector(True)
        assert main(["price", gamble_file(TWO_COINS)]) == 0
        assert seen == [False]

    def test_only_the_cli_imports_gc(self):
        package = Path(likelihood_gambles.__file__).parent
        importers = set()
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                if "gc" in names:
                    importers.add(path.name)
        assert importers == {"cli.py"}

    def test_only_the_fork_helper_forks(self):
        package = Path(likelihood_gambles.__file__).parent
        forkers = set()
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Attribute) and node.attr == "fork":
                    forkers.add(path.name)
                elif isinstance(node, ast.ImportFrom) and node.module == "os":
                    if any(alias.name == "fork" for alias in node.names):
                        forkers.add(path.name)
        assert forkers == {"_fork.py"}


def fresh_interpreter(body: str) -> dict:
    """Run ``body`` in a new interpreter that imports the package from this tree.

    The body leaves its result in ``out``, which comes back through JSON.
    """
    src = str(Path(likelihood_gambles.__file__).resolve().parents[1])
    script = f"import json, sys\nsys.path.insert(0, {src!r})\nout = {{}}\n{body}\nprint(json.dumps(out))\n"
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


class TestImportBoundary:
    """A command imports only the modules it runs; the package API is unchanged."""

    @pytest.mark.parametrize(
        "argv, loaded",
        [
            (None, []),
            (["price", "-f", "json", "{file}"], []),
            (["price", "{file}"], ["decimal"]),
            (["demo-binomial", "-m", "10"], ["decimal", "likelihood_gambles.binomial"]),
            (["compare", "{file}", "{file}"], []),
            (["conformance", "--samples", "10"], ["hashlib", "likelihood_gambles.conformance"]),
        ],
        ids=["import", "price-json", "price-text", "demo-binomial", "compare", "conformance-small"],
    )
    def test_command_loads_only_what_it_runs(self, gamble_file, argv, loaded):
        # No command loads dataclasses, or inspect, which it imports.
        body = "from likelihood_gambles.cli import main\n"
        if argv is not None:
            argv = [arg.format(file=gamble_file(TWO_COINS)) for arg in argv]
            body += f"out['code'] = main({argv!r})\n"
        body += (
            "out['loaded'] = sorted(m for m in ('likelihood_gambles.binomial', "
            "'likelihood_gambles.conformance', 'likelihood_gambles._fork', 'hashlib', 'decimal', "
            "'dataclasses', 'inspect') if m in sys.modules)"
        )
        out = fresh_interpreter(body)
        assert out.get("code", 0) == 0
        assert out["loaded"] == loaded

    def test_star_import_binds_every_public_name(self):
        body = (
            "import importlib\n"
            "names = {}\n"
            "exec('from likelihood_gambles import *', names)\n"
            "del names['__builtins__']\n"
            "import likelihood_gambles as lg\n"
            "out['names'] = sorted(names)\n"
            "out['same'] = [getattr(lg, m) is importlib.import_module('likelihood_gambles.' + m)"
            " for m in ('binomial', 'conformance')]\n"
            "out['missing'] = not hasattr(lg, 'no_such_name') and not hasattr(lg, '_no_such_name')\n"
        )
        out = fresh_interpreter(body)
        assert out["names"] == PUBLIC
        assert len(PUBLIC) == 40
        assert out["same"] == [True, True]
        assert out["missing"]
