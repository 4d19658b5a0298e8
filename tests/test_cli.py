import random
import re
import time

import pytest
from hypothesis import given, seed, settings, strategies as st

from diffident.algebra import Derivation, ad_unit, full_matrix, lie_closure, ut
from diffident.cli import main
from diffident.errors import DiffidentError, NotMultilinear, ParseError, SizeCap
from diffident.fileformat import (
    AlgebraFile,
    check_multilinear,
    parse_algebra_file,
    parse_polynomial,
)
from diffident.linalg import Matrix
from diffident.shipped import identify_shipped, shipped_algebra_file
from diffident import piengine as pe
from test_basis_change import _in_basis, _inner_pair, _invertible, mat2_over_dual_numbers


DECOMPOSE_MAT2_DUAL_MOVED = """\
diffident-report
command decompose
input PATH
config seed=0 max_entries=10000000
algebra mat2-dual-moved dim 8
radical dim 4
blocks 4
block 1 dim 4 unit 614/81 -74014/729 145/54 22571/729 -12386/729 5872/243 -151/18 365/18
block 1 basis 1 0 0 0 579804461891516068571433/25126910084600987000131 -415461587366341534599047/50253820169201974000262 353892972508116311877201/50253820169201974000262 -1282900048638267055757701/50253820169201974000262
block 1 basis 0 1 0 0 218527901213139122473780/25126910084600987000131 -83351209994792401630635/25126910084600987000131 76739310963783931397556/25126910084600987000131 -259579400369645970142290/25126910084600987000131
block 1 basis 0 0 1 0 353598800342490470519118/25126910084600987000131 -132066761653255428240355/25126910084600987000131 99074451495296398292334/25126910084600987000131 -336058950519990737964752/25126910084600987000131
block 1 basis 0 0 0 1 530181784767997354783741/25126910084600987000131 -382799145511921019575371/50253820169201974000262 385838041842112311646401/50253820169201974000262 -1297114258172251916100969/50253820169201974000262
end
"""


@pytest.fixture()
def eps_action():
    u2 = ut(2)
    return lie_closure(u2, [ad_unit(u2, 2, 2, name="eps")])


class TestFileFormat:
    @pytest.mark.parametrize(
        "name,params",
        [
            ("ut2", []),
            ("ut2-eps", []),
            ("ut2-eta", ["1", "1/2"]),
            ("matn", ["2"]),
            ("grassmann-k", ["2"]),
            ("dsum", ["ut2", "matn:2"]),
        ],
    )
    def test_round_trip_byte_identical(self, name, params):
        f = shipped_algebra_file(name, params)
        text = f.serialize()
        assert parse_algebra_file(text).serialize() == text

    def test_parse_validates_derivations(self):
        f = shipped_algebra_file("ut2-eps", [])
        text = f.serialize().replace("0 1 0", "0 1 1")
        g = parse_algebra_file(text)
        from diffident.errors import NotADerivation

        with pytest.raises(NotADerivation):
            g.to_algebra()

    @pytest.mark.parametrize(
        "mangle,fragment",
        [
            (lambda t: t.replace("algebra ut2", "algebre ut2"), "algebra"),
            (lambda t: t.replace("dim 3", "dim x"), "dimension"),
            (lambda t: t.replace("1 1 1 1", "1 9 1 1"), "out of range"),
            (lambda t: t.replace("1 1 1 1", "1 1 1 1/0"), "rational"),
            (lambda t: t.replace("\nend\n", "\n", 1), "expected"),
        ],
    )
    def test_corrupted_inputs_name_a_location(self, mangle, fragment):
        text = shipped_algebra_file("ut2", []).serialize()
        with pytest.raises(ParseError) as err:
            parse_algebra_file(mangle(text)).to_algebra()
        assert fragment in str(err.value)

    def test_identify_shipped(self):
        f = shipped_algebra_file("ut2-eps", [])
        name, info = identify_shipped(f)
        assert name == "ut2-eps" and "checksum" in info

    def test_identify_eta_coefficients(self):
        f = shipped_algebra_file("ut2-eta", ["2", "3"])
        name, info = identify_shipped(f)
        assert name == "ut2-eta"
        assert (info["alpha"], info["beta"]) == (2, 3)

    def test_identify_rejects_tampered(self):
        f = shipped_algebra_file("ut2", [])
        f.table[(2, 2, 2)] = 1
        assert identify_shipped(f) is None


FUZZ_SEEDS = [
    shipped_algebra_file("ut2-eps", []).serialize(),
    shipped_algebra_file("ut2-eta", ["1", "1"]).serialize(),
]
# the format's own alphabet, plus decimal and exponent forms it refuses
fuzz_pieces = st.sampled_from(
    ["1e30000000", "E9", "1.5", "algebra", "dim", "unit", "table", "derivation", "end"]
) | st.text(" \n0123456789-+/", min_size=1, max_size=3)


@st.composite
def mutated_files(draw):
    """A shipped file after 1-3 insertions, deletions of 1-3 bytes, or
    replacements of the rest of the token at the site."""
    text = draw(st.sampled_from(FUZZ_SEEDS))
    rng = random.Random(draw(st.integers(0, 2**32)))  # uniform mutation sites
    for _ in range(draw(st.integers(1, 3))):
        at = rng.randint(0, len(text))
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        if op == "delete":
            text = text[:at] + text[at + draw(st.integers(1, 3)) :]
            continue
        rest = re.match(r"\S*", text[at:]).end() if op == "replace" else 0
        text = text[:at] + draw(fuzz_pieces) + text[at + rest :]
    return text


@seed(14)
@settings(max_examples=300, deadline=2000)
@given(text=mutated_files())
def test_mutated_file_is_refused_with_a_location_or_round_trips(text):
    try:
        f = parse_algebra_file(text)
    except ParseError as exc:
        assert exc.location is not None
        return
    canonical = f.serialize()
    assert parse_algebra_file(canonical).serialize() == canonical
    try:
        f.to_algebra()
    except DiffidentError:
        pass


_EPS_ACTION = lie_closure(ut(2), [ad_unit(ut(2), 2, 2, name="eps")])
# the polynomial texts of TestPolynomialParser and of the check-identity tests
POLY_FUZZ_SEEDS = [
    "x1 x2",
    "2 x1 x2 - 1/2 x2 x1",
    "x1^[eps,eps]",
    "[x1,x2,x3]",
    "[x1,x2]^[eps] - [x1,x2]",
    "x1^[zeta]",
    "x1 x2 ]",
    "x4 [x1,x2,x3]",
    "x1 x3",
    "[x1,x2][x3,x4]",
    "x1 x2 - x2 x1",
    "x1^[eps,eps] - x1^[eps]",
    "x1 + x1^[z]",
    "x1 - x1",
    "x2*x1 - x1*x3",
    "x1 x2 +",
    "x1^[zz] x2",
    "x1 $ x2",
    "2/0 x1 x2",
]
# the grammar's own alphabet
poly_fuzz_pieces = st.sampled_from(
    ["x1", "x2", "x5", "x0", "eps", ",eps", "zeta", "^[eps]", "[", "]", ",", "^", "1/2", "-3", "0"]
) | st.text(" x0123456789[],^+-*/", min_size=1, max_size=3)


@st.composite
def mutated_polynomials(draw):
    """A polynomial text after 1-3 insertions, deletions of 1-3 characters,
    or replacements of the rest of the token at the site."""
    text = draw(st.sampled_from(POLY_FUZZ_SEEDS))
    rng = random.Random(draw(st.integers(0, 2**32)))  # uniform mutation sites
    for _ in range(draw(st.integers(1, 3))):
        at = rng.randint(0, len(text))
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        if op == "delete":
            text = text[:at] + text[at + draw(st.integers(1, 3)) :]
            continue
        rest = re.match(r"[^\s\[\],^+*-]*", text[at:]).end() if op == "replace" else 0
        text = text[:at] + draw(poly_fuzz_pieces) + text[at + rest :]
    return text


def _poly_text(p, act):
    """p in the polynomial grammar, one term per monomial."""
    if p.is_zero():
        return "0 x1"
    names = [d.name for d in act.closure_basis]
    terms = []
    for (vars_, words), c in p.terms.items():
        factors = [
            f"x{v}^[{','.join(names[letter] for letter in w)}]" if w else f"x{v}"
            for v, w in zip(vars_, words)
        ]
        terms.append(f"{c} {' '.join(factors)}")
    return " + ".join(terms)


@seed(31)
@settings(max_examples=300, deadline=2000)
@given(text=mutated_polynomials())
def test_mutated_polynomial_is_refused_with_a_location_or_read_back(text):
    """Every refusal names where in the text it happened; a polynomial that
    parses reads back unchanged from its own text."""
    try:
        p = parse_polynomial(text, _EPS_ACTION)
    except ParseError as exc:
        assert exc.location is not None
        return
    except DiffidentError as exc:
        assert re.search(r"\(at offset \d+\)$", str(exc)), exc
        return
    assert parse_polynomial(_poly_text(p, _EPS_ACTION), _EPS_ACTION) == p


class TestPolynomialParser:
    def test_plain_monomial(self, eps_action):
        p = parse_polynomial("x1 x2", eps_action)
        assert p.terms == {((1, 2), ((), ())): 1}

    def test_coefficients_and_signs(self, eps_action):
        from fractions import Fraction

        p = parse_polynomial("2 x1 x2 - 1/2 x2 x1", eps_action)
        assert p.terms[((1, 2), ((), ()))] == 2
        assert p.terms[((2, 1), ((), ()))] == Fraction(-1, 2)

    def test_exponent_words(self, eps_action):
        p = parse_polynomial("x1^[eps,eps]", eps_action)
        assert p.terms == {((1,), ((0, 0),)): 1}

    def test_commutator_left_normed(self, eps_action):
        p = parse_polynomial("[x1,x2,x3]", eps_action)
        q = pe.left_normed_commutator(
            [pe.LPolynomial.variable(i) for i in (1, 2, 3)]
        )
        assert p.terms == q.terms

    def test_decorated_commutator(self, eps_action):
        p = parse_polynomial("[x1,x2]^[eps] - [x1,x2]", eps_action)
        assert pe.is_identity(p, eps_action)

    def test_unknown_derivation(self, eps_action):
        with pytest.raises(ParseError):
            parse_polynomial("x1^[zeta]", eps_action)

    def test_a_generator_keeps_its_name_beside_a_commutator(self):
        # the commutator of ad e12 and ad e21 sits at closure index 2, but the
        # input holds d2, so it is named d3 and each name finds its own element
        m2 = full_matrix(2)
        act = lie_closure(m2, [ad_unit(m2, 1, 2, name="d2"), ad_unit(m2, 2, 1, name="f")])
        assert [d.name for d in act.closure_basis] == ["d2", "f", "d3"]
        assert parse_polynomial("x1^[d2]", act) == pe.LPolynomial.variable(1, (0,))
        assert parse_polynomial("x1^[d3]", act) == pe.LPolynomial.variable(1, (2,))

    def test_trailing_garbage(self, eps_action):
        with pytest.raises(ParseError):
            parse_polynomial("x1 x2 ]", eps_action)

    def test_budget_stops_a_commutator_step(self, eps_action):
        # [x1,x2] is 3^2 tuples times 2 terms; [x1,x2,x3] is 3^3 times 4
        assert len(parse_polynomial("[x1,x2,x3]", eps_action, max_entries=108).terms) == 4
        with pytest.raises(SizeCap, match=r"3\^3 basis tuples times 4 terms .*\(at offset 0\)"):
            parse_polynomial("[x1,x2,x3]", eps_action, max_entries=107)
        with pytest.raises(SizeCap, match=r"\(at offset 3\)"):
            parse_polynomial("x4 [x1,x2,x3]", eps_action, max_entries=300)

    def test_multilinear_check(self, eps_action):
        p = parse_polynomial("x1 x3", eps_action)
        with pytest.raises(NotMultilinear):
            check_multilinear(p)
        assert check_multilinear(parse_polynomial("x1 x2", eps_action)) == 2


class TestCommands:
    def _gen(self, tmp_path, name, params=()):
        out = tmp_path / f"{name}.alg"
        assert main(["gen", name, *params, "-o", str(out)]) == 0
        return str(out)

    def test_gen_and_codim(self, tmp_path, capsys):
        path = self._gen(tmp_path, "ut2")
        assert main(["codim", path, "--max-n", "3"]) == 0
        text = capsys.readouterr().out
        assert "n 1 c 1" in text and "n 3 c 6" in text
        assert "agrees" in text

    def test_codim_ut2_eps_agrees_with_formula(self, tmp_path, capsys):
        path = self._gen(tmp_path, "ut2-eps")
        assert main(["codim", path, "--max-n", "3"]) == 0
        text = capsys.readouterr().out
        assert "n 2 c 5" in text
        assert "formula 2^(n-1)n+1 n 3 agrees" in text
        assert "MISMATCH" not in text

    def test_codim_reports_each_degree_on_stderr(self, tmp_path, capsys):
        path = self._gen(tmp_path, "ut2-eps")
        assert main(["codim", path, "--max-n", "2"]) == 0
        captured = capsys.readouterr()
        assert "n 1 monomials 2 rank 2 " in captured.err
        assert "n 2 monomials 8 rank 5 " in captured.err
        assert "monomials" not in captured.out

    def test_config_file_sets_seed_and_primes(self, tmp_path, capsys, monkeypatch):
        path = self._gen(tmp_path, "ut2-eps")
        cfg = tmp_path / "config"
        # prime_count, a key of older config files, is ignored like any other
        cfg.write_text("# modular settings\nseed=7\nprime_count=2\n")
        monkeypatch.setenv("DIFFIDENT_CONFIG", str(cfg))
        assert main(["codim", path, "--max-n", "2", "--mode", "modular"]) == 0
        out = capsys.readouterr().out
        assert "config seed=7 max_entries=10000000" in out
        assert "n 2 c 5" in out

    def test_modular_report_says_its_values_are_lower_bounds(self, tmp_path, capsys):
        path = self._gen(tmp_path, "ut2-eps")
        bound = "bound lower: each c is the rank modulo one 31-bit prime drawn from seed 0"
        assert main(["codim", path, "--max-n", "2", "--mode", "modular"]) == 0
        modular = capsys.readouterr().out.splitlines()
        assert modular[modular.index("mode modular") + 1] == bound
        assert main(["codim", path, "--max-n", "2"]) == 0
        exact = capsys.readouterr().out
        assert "mode exact" in exact and "bound" not in exact
        assert [l for l in modular if l.startswith("n ")] == [
            l for l in exact.splitlines() if l.startswith("n ")
        ]

    @pytest.mark.parametrize("line,key", [("seed=abc", "seed")])
    def test_bad_config_is_input_error(self, tmp_path, capsys, monkeypatch, line, key):
        path = self._gen(tmp_path, "ut2-eps")
        cfg = tmp_path / "config"
        cfg.write_text(line + "\n")
        monkeypatch.setenv("DIFFIDENT_CONFIG", str(cfg))
        assert main(["codim", path, "--max-n", "1", "--mode", "modular"]) == 2
        err = capsys.readouterr().err
        assert "error input: config " + key in err
        assert str(cfg) in err

    @pytest.mark.parametrize(
        "old,new,message",
        [
            # (e1 e1) e2 = 2 e2 but e1 (e1 e2) = 4 e2
            ("1 2 2 1", "1 2 2 2", "associativity fails on basis triple (1, 1, 2)"),
            # eps(e2) = e2 + e3, so eps(e1 e2) = e2 + e3 against e1 eps(e2) = e2
            ("0 1 0", "0 1 1", "derivation eps: Leibniz rule fails on basis pair (1, 2)"),
        ],
    )
    def test_bad_input_names_its_location_in_file_indices(
        self, tmp_path, capsys, old, new, message
    ):
        path = tmp_path / "bad.alg"
        text = shipped_algebra_file("ut2-eps", []).serialize()
        assert f"\n{old}\n" in text
        path.write_text(text.replace(f"\n{old}\n", f"\n{new}\n"))
        assert main(["exponent", str(path)]) == 2
        assert f"error input: {message}\n" in capsys.readouterr().err

    def test_decompose_report(self, tmp_path, capsys):
        path = self._gen(tmp_path, "ut2")
        assert main(["decompose", path]) == 0
        text = capsys.readouterr().out
        assert "radical dim 1" in text
        assert "blocks 1 1" in text

    def test_envelope_report(self, tmp_path, capsys):
        path = self._gen(tmp_path, "ut2-eps")
        assert main(["envelope", path]) == 0
        assert "envelope dim 2" in capsys.readouterr().out

    def test_verify_gk_pass(self, tmp_path, capsys):
        path = self._gen(tmp_path, "ut2-eps")
        assert main(["verify-gk", path, "--action", "eps"]) == 0
        assert "verdict PASS" in capsys.readouterr().out

    def test_verify_gk_on_a_matrix_block_tangled_with_the_radical(self, tmp_path, capsys):
        # M2(Q[t]/(t^2)) in a dense rational basis, with a moved inner pair
        alg = mat2_over_dual_numbers()
        p, p_inv = _invertible(alg.dim, random.Random(0))
        moved = _in_basis(alg, p, p_inv)
        ders = [Derivation(p * d.matrix * p_inv, name=d.name) for d in _inner_pair(alg, 0)]
        path = tmp_path / "mat2-dual.alg"
        path.write_text(AlgebraFile.from_algebra("mat2-dual-moved", moved, ders).serialize())
        assert main(["verify-gk", str(path)]) == 0
        out = capsys.readouterr().out
        assert "exp 4\nexp-L 4\nverdict PASS" in out

    def test_decompose_golden_in_a_random_basis(self, tmp_path, capsys, monkeypatch):
        # bases, units and block order, not only dimensions, pinned byte for byte
        monkeypatch.delenv("DIFFIDENT_CONFIG", raising=False)
        alg = mat2_over_dual_numbers()
        p, p_inv = _invertible(alg.dim, random.Random(0))
        moved = _in_basis(alg, p, p_inv)
        path = tmp_path / "mat2-dual.alg"
        path.write_text(AlgebraFile.from_algebra("mat2-dual-moved", moved, []).serialize())
        assert main(["decompose", str(path)]) == 0
        assert capsys.readouterr().out == DECOMPOSE_MAT2_DUAL_MOVED.replace("PATH", str(path))

    def test_check_identity(self, tmp_path, capsys):
        path = self._gen(tmp_path, "ut2")
        poly = tmp_path / "p.poly"
        poly.write_text("[x1,x2][x3,x4]")
        assert main(["check-identity", path, "--poly", str(poly)]) == 0
        assert "result true" in capsys.readouterr().out

    def test_check_identity_false_with_witness(self, tmp_path, capsys):
        path = self._gen(tmp_path, "ut2")
        poly = tmp_path / "p.poly"
        poly.write_text("x1 x2 - x2 x1")
        assert main(["check-identity", path, "--poly", str(poly)]) == 0
        out = capsys.readouterr().out
        assert "result false" in out and "witness" in out

    def test_a_generator_outside_the_closure_basis_names_no_letter(self, tmp_path, capsys):
        # z = 0 is left out of the closure basis, whose one element is eps
        u2 = ut(2)
        ders = [Derivation(Matrix.zero(3, 3), name="z"), ad_unit(u2, 2, 2, name="eps")]
        path = tmp_path / "ut2-z-eps.alg"
        path.write_text(AlgebraFile.from_algebra("ut2-z-eps", u2, ders).serialize())
        assert main(["envelope", str(path)]) == 0
        assert "closure dim 1\nenvelope dim 2\nword 1\nword eps\n" in capsys.readouterr().out
        poly = tmp_path / "p.poly"
        # eps is idempotent, and x1^[eps] resolves to it
        for text, result in (("x1^[eps,eps] - x1^[eps]", "true"), ("x1^[eps]", "false")):
            poly.write_text(text)
            assert main(["check-identity", str(path), "--poly", str(poly)]) == 0
            assert f"result {result}" in capsys.readouterr().out
        poly.write_text("x1 + x1^[z]")
        assert main(["check-identity", str(path), "--poly", str(poly)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error input: derivation 'z' is zero or a combination")
        assert "(at offset 9)" in err and "Traceback" not in err

    def test_zero_polynomial_is_bad_input(self, tmp_path, capsys):
        path = self._gen(tmp_path, "ut2")
        poly = tmp_path / "p.poly"
        poly.write_text("x1 - x1")
        capsys.readouterr()
        assert main(["check-identity", path, "--poly", str(poly)]) == 2
        assert capsys.readouterr().err == "error input: the zero polynomial has no degree\n"

    def test_check_identity_honours_budget(self, tmp_path, capsys, monkeypatch):
        path = self._gen(tmp_path, "ut2")
        poly = tmp_path / "p.poly"
        poly.write_text("[x1,x2][x3,x4]")
        cfg = tmp_path / "config"
        cfg.write_text("max_entries=10\n")
        monkeypatch.setenv("DIFFIDENT_CONFIG", str(cfg))
        assert main(["check-identity", path, "--poly", str(poly)]) == 3
        assert "error budget" in capsys.readouterr().err

    def test_long_commutator_stops_in_the_parser(self, tmp_path, capsys):
        path = self._gen(tmp_path, "ut2-eps")
        poly = tmp_path / "p.poly"
        poly.write_text("[" + ",".join(f"x{i}" for i in range(1, 17)) + "]")
        capsys.readouterr()
        assert main(["check-identity", path, "--poly", str(poly)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error budget: ") and "(at offset 0)" in err
        assert "Traceback" not in err

    def test_word_over_the_cap_names_its_factor(self, tmp_path, capsys):
        path = self._gen(tmp_path, "ut2-eps")
        poly = tmp_path / "p.poly"
        poly.write_text("x1 x2^[eps] + x2^[eps,eps,eps] x1")
        capsys.readouterr()
        assert main(["check-identity", path, "--poly", str(poly)]) == 3
        assert capsys.readouterr().err == (
            "error budget: word length 3 > cap 2 (at offset 14)\n"
        )

    def test_bad_generator_name_is_input_error(self, capsys):
        assert main(["gen", "nosuch"]) == 2

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["gen", "matn", "100"], "parameter matn n = 100"),
            (["gen", "grassmann-k", "40"], "parameter grassmann-k k = 40"),
            (["gen", "grassmann-k", "9" * 40], f"parameter grassmann-k k = {'9' * 40}"),
            (["gen", "dsum", "ut2", "utn:1000"], "dsum ut2 utn:1000"),
        ],
    )
    def test_large_generator_exits_3_before_building(self, capsys, argv, message):
        # dim^3 structure constants are charged to max_entries up front
        start = time.perf_counter()
        assert main(argv) == 3
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err.startswith("error budget: ") and message in err
        assert "exceed the budget 10000000" in err

    def test_generator_budget_follows_the_config(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "config"
        cfg.write_text("max_entries=63\n")
        monkeypatch.setenv("DIFFIDENT_CONFIG", str(cfg))
        assert main(["gen", "grassmann-k", "2"]) == 3  # 4^3 = 64 constants
        assert main(["gen", "utn", "2"]) == 0  # 3^3 = 27
        assert "algebra utn-2" in capsys.readouterr().out

    def test_missing_file_is_input_error(self, capsys):
        assert main(["radical", "/nonexistent/file.alg"]) == 2

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["radical", "{bad}"], "not valid UTF-8 (invalid start byte at byte 8) (at {bad})"),
            (["gen", "matn", "x"], "parameter matn n must be an integer, not 'x'"),
            (["gen", "dsum", "ut2", "matn:x"], "parameter matn n must be an integer, not 'x'"),
            (["gen", "ut2-eta", "a", "b"], "parameter ut2-eta alpha must be a rational number"),
            (["gen", "ut2-eta", "1/0", "2"], "ut2-eta alpha must be a rational number, not '1/0'"),
            (["codim", "{bad}", "--max-n", "0"], "--max-n must be at least 1, not 0"),
            (["codim", "{bad}", "--max-n", "-2"], "--max-n must be at least 1, not -2"),
            (
                ["gen", "ut2", "-o", "{bad}.d/x.alg"],
                "cannot write output: No such file or directory (at {bad}.d/x.alg)",
            ),
        ],
    )
    def test_bad_input_exits_2_with_a_message(self, tmp_path, capsys, argv, message):
        bad = tmp_path / "latin1.alg"
        bad.write_bytes(b"algebra \xff\xfe\n")
        argv = [a.format(bad=bad) for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error input: ") and message.format(bad=bad) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "name,old,new,message",
        [
            ("ut2", "1 1 1 1\n", "1 1 1 1e30000000\n", "bad rational '1e30000000' (at line 5)"),
            ("ut2", "unit 1 0 1", "unit 1e30000000 0 1", "bad rational '1e30000000' (at line 3)"),
            ("ut2-eps", "0 1 0\n", "0 1e30000000 0\n", "bad rational '1e30000000' (at line 12)"),
            (None, None, None, "parameter ut2-eta alpha must be a rational number, not '1e300000000'"),
        ],
    )
    def test_exponent_notation_is_refused_at_once(
        self, tmp_path, fresh_python, name, old, new, message
    ):
        # Fraction("1e30000000") would build a 30-million-digit integer first
        if name is None:
            argv = ["gen", "ut2-eta", "1e300000000", "1"]
        else:
            path = tmp_path / f"{name}.alg"
            path.write_text(shipped_algebra_file(name, []).serialize().replace(old, new, 1))
            argv = ["radical", str(path)]
        script = (
            "import sys, time\n"
            "from diffident.cli import main\n"
            "start = time.perf_counter()\n"
            f"code = main({argv!r})\n"
            "print(code, time.perf_counter() - start)\n"
        )
        proc = fresh_python(script, timeout=30)
        code, seconds = proc.stdout.split()
        assert code == "2" and float(seconds) < 1
        assert proc.stderr.startswith("error input: ") and message in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_terms_over_other_variables_name_their_sign(self, tmp_path, capsys):
        path = self._gen(tmp_path, "ut2")
        poly = tmp_path / "p.poly"
        poly.write_text("x2*x1 - x1*x3")
        capsys.readouterr()
        assert main(["check-identity", path, "--poly", str(poly)]) == 2
        assert capsys.readouterr().err == (
            "error input: terms over variables (1, 2) and (1, 3) (at offset 6)\n"
        )

    def test_empty_algebra_file_names_end_of_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.alg"
        empty.write_text("")
        assert main(["radical", str(empty)]) == 2
        err = capsys.readouterr().err
        assert "expected algebra header (at end of file)" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "text,message",
        [
            ("", "a term needs at least one factor, found end of input (at offset 0)"),
            ("x1 x2 +", "a term needs at least one factor, found end of input (at offset 7)"),
            ("x1^[zz] x2", "unknown derivation 'zz' (at offset 4)"),
            ("x1 $ x2", "unexpected character '$' (at offset 3)"),
            ("2/0 x1 x2", "bad rational '2/0' (at offset 0)"),
            ("x1 [x1,x2]", "products need disjoint variables (at offset 3)"),
            ("[" * 400 + "x1, x2" + "]" * 400, "commutators nest deeper than 32 (at offset 32)"),
        ],
    )
    def test_bad_polynomial_names_its_offset(self, tmp_path, capsys, text, message):
        path = self._gen(tmp_path, "ut2-eps")
        poly = tmp_path / "p.poly"
        poly.write_text(text)
        capsys.readouterr()
        assert main(["check-identity", path, "--poly", str(poly)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error input: ") and message in err
        assert "Traceback" not in err

    def test_unknown_battery_suite(self, capsys):
        assert main(["battery", "--suite", "nosuch"]) == 2

    def test_reports_deterministic(self, tmp_path, capsys):
        path = self._gen(tmp_path, "ut2")
        main(["codim", path, "--max-n", "2"])
        first = capsys.readouterr().out
        main(["codim", path, "--max-n", "2"])
        second = capsys.readouterr().out
        assert first == second

    def test_battery_exponents_suite(self, capsys):
        assert main(["battery", "--suite", "exponents"]) == 0
        assert "criterion 5 PASS" in capsys.readouterr().out

    def test_battery_times_each_criterion_on_stderr(self, capsys):
        import re

        assert main(["battery", "--suite", "spanning"]) == 0
        captured = capsys.readouterr()
        assert re.search(r"^criterion 8 \d+\.\d\ds$", captured.err, re.M)
        assert "criterion 8 PASS" in captured.out
        assert not re.search(r"\d\.\d+s\b", captured.out)
