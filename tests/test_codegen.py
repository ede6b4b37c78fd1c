"""Emitters: golden lines, structural invariants, semantic fidelity."""

import hashlib
import io
import itertools
import math
import random
import re
import tracemalloc

import pytest

from pinassign import (
    Board,
    FunctionEntry,
    Pin,
    Request,
    Semantics,
    SolveOptions,
    Assignment,
    emit_alloy_best_assertions,
    emit_alloy_feasibility_assertion,
    emit_alloy_spec,
    emit_graph_dot,
    emit_prolog,
    find_best,
    find_feasible,
    parse_board,
    parse_request,
)

from alloy_reference import has_counterexample, read_assertions, read_pins
from conftest import instance_family, prolog_text, random_board
from count_references import realization_count
from prolog_reference import fact_base_by_product

PA1_SIGNATURE = """\
one sig PA1 extends Pin {} {
  conntype = ANALOG + ICU + ICU
  conn_detail = ADC1_IN1 + TIM2_CH2 + TIM5_CH2
  cost = 3}
"""

PA2_SIGNATURE = """\
one sig PA2 extends Pin {} {
  conntype = ANALOG + SERIAL_TX + ICU + ICU
  conn_detail = ADC1_IN2 + UART2_TX +
  TIM2_CH3 + TIM5_CH3
  cost = 4}
"""

FACT_RE = re.compile(
    r"config\(\[(?P<kinds>[^]]*)\],\[\[(?P<pins>[^]]*)\],(?P<cost>\d+)\]\)\.\Z"
)


def _read_facts(text):
    """Test-only fact reader: (kind tuple, pin tuple, cost) per config line."""
    facts = []
    for line in text.splitlines():
        match = FACT_RE.match(line.strip())
        if match:
            kinds = tuple(
                token.strip("'").replace("-", "_").upper()
                for token in match.group("kinds").split(",")
            )
            pins = tuple(t.strip("'") for t in match.group("pins").split(","))
            facts.append((kinds, pins, int(match.group("cost"))))
    return facts


# --- Prolog


def test_prolog_contains_reference_fact(two_pin_board):
    text, _ = prolog_text(two_pin_board, 2)
    assert "config([analog,analog],[[pa1,pa2],7])." in text.splitlines()


def test_prolog_single_pin_facts(two_pin_board):
    text, _ = prolog_text(two_pin_board, 1)
    lines = text.splitlines()
    assert "config([icu],[[pa1],3])." in lines
    assert "config([analog],[[pa2],4])." in lines
    # length-2 facts excluded at max_len 1
    assert not any(",pa2]" in line and "pa1," in line for line in lines)


def test_prolog_hyphenated_kinds_are_quoted(two_pin_board):
    text, _ = prolog_text(two_pin_board, 1)
    assert "config(['serial-tx'],[[pa2],4])." in text.splitlines()


def test_prolog_inference_rules_present(two_pin_board):
    text, _ = prolog_text(two_pin_board, 2)
    assert "getConfig(RequiredConfiguration, Pair) :-" in text
    assert "msort(RequiredConfiguration, S)," in text
    assert "allConfigs(RequiredConfiguration, Set) :-" in text
    assert "cheapestConfig(R, Pins, Costs) :-" in text


def test_prolog_empty_board_emits_rules_only():
    text, output = prolog_text(Board(()), 1)
    assert output.items == 0
    assert not any(line.startswith("config(") for line in text.splitlines())
    assert "getConfig" in text


def test_prolog_refuses_max_len_below_one_before_writing(two_pin_board):
    sink = io.StringIO()
    with pytest.raises(ValueError, match="max_len must be positive"):
        emit_prolog(two_pin_board, 0, sink=sink)
    assert sink.getvalue() == ""


def test_prolog_fact_count_matches_oracle():
    rng = random.Random(31)
    for _ in range(12):
        board = random_board(rng, max_pins=5, max_entries=3)
        max_len = rng.randint(1, 3)
        text, output = prolog_text(board, max_len)
        assert output.items == realization_count(board, max_len)
        assert output.items == len(_read_facts(text))


@pytest.mark.filterwarnings("ignore::pinassign.AllPinsUsedWarning")
def test_prolog_fact_minimum_agrees_with_find_best():
    rng = random.Random(32)
    for _ in range(10):
        board = random_board(rng, max_pins=5, max_entries=3)
        max_len = rng.randint(1, 3)
        facts = _read_facts(prolog_text(board, max_len)[0])
        by_kinds = {}
        for kinds, pins, cost in facts:
            by_kinds.setdefault(kinds, []).append(cost)
        for kinds, costs in by_kinds.items():
            outcome = find_best(board, Request(kinds))
            assert isinstance(outcome, Assignment)
            assert outcome.total_cost == min(costs), (board, kinds)


def test_prolog_nbytes_counts_utf8_bytes_written(two_pin_board):
    # a board name is free text and reaches the header: nbytes counts UTF-8
    # bytes, not characters ("ü" and "µ" take two bytes each)
    named = Board(two_pin_board.pins, "Prüfstand µC")
    text, output = prolog_text(named, 2)
    assert output.text == ""
    assert output.nbytes == len(text.encode("utf-8"))
    assert (output.nbytes, len(text)) == (993, 991)


class _CountingSink:
    """A sink that keeps only the number of characters written to it."""

    def __init__(self):
        self.chars = 0

    def write(self, piece):
        self.chars += len(piece)


def test_prolog_streaming_keeps_memory_bounded(demo_board):
    """The demo's 572 KB fact base at max_len 3 and 5.75 MB one at max_len 4,
    and a 60-pin board's 8.1 MB one at max_len 3, stream in a small fraction
    of their size: memory holds the atom tables, one size's fact heads, one
    pin prefix's shifted code runs and one pin subset's block."""
    wide = _wide_board(random.Random(60), 60)
    for board, max_len, nbytes in [
        (demo_board, 3, 572_126), (demo_board, 4, 5_751_884), (wide, 3, 8_098_991),
    ]:
        sink = _CountingSink()
        tracemalloc.start()
        try:
            output = emit_prolog(board, max_len, sink=sink)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (output.nbytes, sink.chars) == (nbytes, nbytes)
        assert peak < output.nbytes // 10, (len(board), max_len)


@pytest.mark.parametrize(
    "max_len, facts, nbytes, sha256",
    [
        (3, 11_149, 572_126, "d2876d47c1709371f6c275325c62940ceac5d64470feeed9d7f541ed8f951454"),
        (4, 91_184, 5_751_884, "fbaf319e73aef7eb17141b5fe28fab3913b340b8a3b5430a87f83b7716ee34fd"),
    ],
    ids=["3", "4"],
)
def test_prolog_demo_fact_base_golden(demo_board, max_len, facts, nbytes, sha256):
    """The demo board's fact bases, byte for byte."""
    text, output = prolog_text(demo_board, max_len)
    data = text.encode("utf-8")
    assert (output.items, output.nbytes, len(data)) == (facts, nbytes, nbytes)
    assert hashlib.sha256(data).hexdigest() == sha256


def test_prolog_facts_list_kinds_in_atom_order():
    """getConfig msorts the query, and the standard order compares atoms by
    character codes: 'can-tx' @< canx, since "-" (45) < "x" (120), although
    CAN_TX sorts after CANX by name ("_" is 95)."""
    board = parse_board("pin P1 = CAN_TX\npin P2 = CANX\n")
    text, _ = prolog_text(board, 2)
    assert "config(['can-tx',canx],[[p1,p2],2])." in text.splitlines()
    facts = _read_facts(text)
    assert (("CAN_TX", "CANX"), ("p1", "p2"), 2) in facts
    for kinds, _, _ in facts:
        atoms = [kind.lower().replace("_", "-") for kind in kinds]
        assert atoms == sorted(atoms)


# Kinds whose atoms order differently from their names ("_" is written as
# "-", which sorts before letters and digits): 'a-b' @< ab, 'can-tx' @< canx.
_ATOM_ORDER_POOL = [
    "A", "A_", "A_B", "AB", "ANALOG", "CAN", "CAN_TX", "CANX", "ICU", "I2C_SCL",
    "I2C_SDA", "PWM", "SERIAL_RX", "SERIAL_TX", "X_1", "X1",
]

# Sorted combinations the reference may make on one board; max_len is lowered
# until the board fits, so the 300 boards take a few seconds.
_REFERENCE_BUDGET = 30_000


def _reference_work(board, max_len):
    sizes = [len(set(pin.kinds())) for pin in board.pins]
    return sum(
        math.prod(sizes[i] for i in subset)
        for k in range(1, min(max_len, len(sizes)) + 1)
        for subset in itertools.combinations(range(len(sizes)), k)
    )


def _reference_case(rng):
    """A board of 0-11 pins with 1-8 kinds each (some repeated under another
    detail), drawn from _ATOM_ORDER_POOL, and a max_len of 1-6."""
    pins = []
    for i in range(rng.randint(0, 11)):
        kinds = rng.sample(_ATOM_ORDER_POOL, min(rng.randint(1, 8), rng.randint(1, 8)))
        kinds += rng.sample(kinds, rng.randint(0, 1))
        entries = tuple(FunctionEntry(kind, f"D{j}") for j, kind in enumerate(kinds))
        pins.append(Pin(rng.choice(["P", "p", "Pin_"]) + str(i), entries))
    board = Board(tuple(pins), rng.choice([None, "ref", "Prüfstand µC"]))
    max_len = rng.randint(1, 6)
    while _reference_work(board, max_len) > _REFERENCE_BUDGET:
        max_len -= 1
    return board, max_len


def test_prolog_equals_product_reference():
    """emit_prolog writes the product-and-sort reference's fact base byte for
    byte, and counts its facts and UTF-8 bytes, on 300 seeded boards."""
    rng = random.Random(22)
    seen = set()
    for _ in range(300):
        board, max_len = _reference_case(rng)
        text, facts = fact_base_by_product(board, max_len)
        written, output = prolog_text(board, max_len)
        assert written == text, (board, max_len)
        assert (output.items, output.nbytes) == (facts, len(text.encode("utf-8")))
        seen.update({
            ("pins", len(board)), ("max_len", max_len),
            ("kinds", max((len(set(pin.kinds())) for pin in board.pins), default=0)),
            ("max_len above pins", max_len > len(board)),
        })
    wanted = {("pins", n) for n in range(12)} | {("max_len", n) for n in range(1, 7)}
    wanted |= {("kinds", 8), ("max_len above pins", True)}
    assert wanted <= seen



# Few kinds, so that wide boards repeat kind sets and a pin's shifted runs
# overlap; two pairs of them order differently as atoms and as names.
_WIDE_POOL = ["A", "A_B", "AB", "CAN_TX", "CANX", "PWM"]


def _wide_board(rng, n):
    """A board of n pins with 1-3 kinds each from _WIDE_POOL (some repeated
    under another detail), two of which offer the same two kinds and the
    last of which offers one."""
    kind_sets = [rng.sample(_WIDE_POOL, rng.choice([1, 1, 2, 2, 3])) for _ in range(n - 1)]
    i, j = rng.sample(range(n - 1), 2)
    kind_sets[i] = rng.sample(_WIDE_POOL, 2)
    kind_sets[j] = kind_sets[i][:]
    kind_sets.append(rng.sample(_WIDE_POOL, 1))
    pins = []
    for i, kinds in enumerate(kind_sets):
        kinds += rng.sample(kinds, rng.randint(0, 1))
        pins.append(Pin(f"W{i}", tuple(FunctionEntry(kind, f"D{j}") for j, kind in enumerate(kinds))))
    return Board(tuple(pins), "wide")


def test_prolog_equals_product_reference_on_wide_boards():
    """Boards wider than the seeded cases, byte for byte against the
    product-and-sort reference. Their pins of one kind read a shifted run as
    it is (the last pin among them), many pins share a kind set, and two
    pins sharing two kinds give a subset whose shifted runs overlap, so its
    merged codes must drop repeats; pins of several kinds that offer at most
    one of their prefix's kinds merge runs that cannot overlap."""
    rng = random.Random(31)
    for _ in range(12):
        board, max_len = _wide_board(rng, rng.randint(24, 40)), rng.randint(2, 3)
        kind_sets = [frozenset(pin.kinds()) for pin in board.pins]
        assert len(kind_sets[-1]) == 1
        assert any(kind_sets.count(kinds) > 1 for kinds in kind_sets if len(kinds) > 1)
        text, facts = fact_base_by_product(board, max_len)
        written, output = prolog_text(board, max_len)
        assert written == text, (len(board), max_len)
        assert (output.items, output.nbytes) == (facts, len(text.encode("utf-8")))


# --- Alloy instance model


def _tokens(text):
    return text.split()


def test_alloy_spec_reproduces_reference_signatures(two_pin_board):
    text = emit_alloy_spec(two_pin_board).text
    blocks = text.split("\n\n")
    pa1 = next(b for b in blocks if "sig PA1" in b)
    pa2 = next(b for b in blocks if "sig PA2" in b)
    assert _tokens(pa1) == _tokens(PA1_SIGNATURE)
    assert _tokens(pa2) == _tokens(PA2_SIGNATURE)


def test_alloy_spec_declares_metamodel(two_pin_board):
    text = emit_alloy_spec(two_pin_board).text
    assert "abstract sig Pin {" in text
    assert "abstract sig ConnType {}" in text
    assert "abstract sig ConnDetail {}" in text
    for kind in ("ANALOG", "ICU", "SERIAL_TX"):
        assert f"one sig {kind} extends ConnType {{}}" in text
    assert "one sig ADC1_IN1 extends ConnDetail {}" in text


def test_alloy_spec_single_entry_cost_one():
    board = parse_board("pin PB0 = ANALOG/ADC2_IN0")
    text = emit_alloy_spec(board).text
    assert "cost = 1}" in text


def test_alloy_spec_detail_free_pin_gets_empty_set():
    board = parse_board("pin PB0 = ANALOG")
    assert "conn_detail = none" in emit_alloy_spec(board).text


@pytest.mark.parametrize(
    "text, name",
    [
        ("pin PA1 = ANALOG\npin ANALOG = PWM", "ANALOG"),  # a pin named like a kind
        ("pin PA1 = ANALOG/PA1", "PA1"),  # a detail named like a pin
        ("pin PA1 = PWM/PWM", "PWM"),  # a detail named like a kind
        ("pin Pin = ANALOG", "Pin"),
        ("pin PA1 = ANALOG/ConnType", "ConnType"),
        ("pin PA1 = ANALOG/ConnDetail", "ConnDetail"),
        ("pin Int = ANALOG", "Int"),
    ],
)
def test_alloy_spec_refuses_a_signature_name_declared_twice(text, name):
    with pytest.raises(ValueError, match=f"signature name '{name}' is declared twice"):
        emit_alloy_spec(parse_board(text))


@pytest.mark.parametrize("detail", ["0", "1ADC", "_X"])
def test_alloy_spec_refuses_a_detail_not_starting_with_a_letter(detail):
    with pytest.raises(ValueError, match=f"detail '{detail}' must start with a letter"):
        emit_alloy_spec(parse_board(f"pin PA1 = PWM/{detail}, ANALOG/ADC1"))


ALLOY_KEYWORDS = (
    "abstract all and as assert but check disj else enum exactly extends fact for fun iden "
    "iff implies in int let lone module no none not one open or pred private run seq set sig "
    "some sum this univ"
).split()


@pytest.mark.parametrize("name", ALLOY_KEYWORDS)
def test_alloy_spec_refuses_a_keyword_as_pin_or_detail(name):
    for text in (f"pin {name} = ANALOG", f"pin PA1 = ANALOG/{name}"):
        with pytest.raises(ValueError, match=f"'{name}' is an Alloy keyword"):
            emit_alloy_spec(parse_board(text))


@pytest.mark.parametrize("name", ["conntype", "conn_detail", "cost"])
def test_alloy_spec_refuses_a_pin_field_as_pin_or_detail(name):
    for text in (f"pin {name} = ANALOG", f"pin PA1 = ANALOG/{name}"):
        with pytest.raises(ValueError, match=f"'{name}' is a field of Pin"):
            emit_alloy_spec(parse_board(text))


def test_alloy_spec_kinds_are_never_reserved_names():
    """A kind token spelled like a keyword or a field of Pin is read as its
    upper-case canonical form, which Alloy does not reserve, and a Board
    holds no other form."""
    text = emit_alloy_spec(parse_board("pin PA1 = sig, cost/D1")).text
    assert "one sig SIG extends ConnType {}" in text
    assert "one sig COST extends ConnType {}" in text
    for name in ("sig", "cost"):
        with pytest.raises(ValueError, match="not canonical"):
            FunctionEntry(name)


# --- Alloy assertions


def test_feasibility_assertion_two_analogs():
    output = emit_alloy_feasibility_assertion(parse_request("analog,analog"))
    expected = (
        "assert ANALOG_ANALOG {\n"
        "  all disj p1, p2:Pin |\n"
        "  not (\n"
        "    ANALOG in p1.conntype &&\n"
        "    ANALOG in p2.conntype\n"
        "  )}\n"
        "\n"
        "check ANALOG_ANALOG\n"
    )
    assert output.text == expected


def test_feasibility_assertion_single_slot_drops_disj():
    text = emit_alloy_feasibility_assertion(parse_request("icu")).text
    assert "all p1:Pin |" in text
    assert "disj" not in text


def test_feasibility_assertion_mixed_kinds():
    text = emit_alloy_feasibility_assertion(parse_request("analog,serial-tx")).text
    assert "ANALOG in p1.conntype" in text
    assert "SERIAL_TX in p2.conntype" in text


def test_feasibility_assertion_rejects_empty_request():
    with pytest.raises(ValueError):
        emit_alloy_feasibility_assertion(parse_request(""))


def test_best_assertions_cover_inclusive_cost_range():
    output = emit_alloy_best_assertions(parse_request("analog,analog"), 3, 4)
    bounds = re.findall(r"_COST_(\d+) \{", output.text)
    assert bounds == ["6", "7", "8"]
    assert output.items == 2 * (4 - 3) + 1


def test_best_assertions_single_slot_range():
    output = emit_alloy_best_assertions(parse_request("icu"), 2, 5)
    bounds = re.findall(r"_COST_(\d+) \{", output.text)
    assert bounds == ["2", "3", "4", "5"]


def test_best_assertions_cost_expression_shape():
    text = emit_alloy_best_assertions(parse_request("analog,analog"), 3, 4).text
    assert "p1.cost.add[p2.cost]<=7" in text


def test_best_assertions_bitwidth_covers_max_total():
    output = emit_alloy_best_assertions(parse_request("analog,analog,analog"), 2, 4)
    widths = {int(w) for w in re.findall(r"for (\d+) int", output.text)}
    assert len(widths) == 1
    width = widths.pop()
    assert 2 ** (width - 1) - 1 >= 3 * 4


DEMO_REQUEST = "analog,analog,analog,icu,analog,analog,serial-tx,serial-rx,can-tx,i2c-sda"


@pytest.mark.parametrize(
    "request_text, items, nbytes, sha256",
    [
        (DEMO_REQUEST, 1, 526, "49cfd917a804f7233821214ae113ebe00f01a7de597fb818f341ffad941a0041"),
        ("analog,analog", 1, 136, "8d7971d11c39c1935d3053d6c56ff092cb6dac15f3b93a57cf83cf1a3accf7a5"),
        ("icu", 1, 75, "72cba1e8e3e6e09d8d3623dc10b03a074fdcbe641a341433c2b92f544bfaaf94"),
    ],
    ids=["demo-10", "two-analogs", "single-slot"],
)
def test_feasibility_assertion_golden(request_text, items, nbytes, sha256):
    output = emit_alloy_feasibility_assertion(parse_request(request_text))
    data = output.text.encode("utf-8")
    assert (output.kind, output.items, output.nbytes, len(data)) == (
        "alloy-assert", items, nbytes, nbytes
    )
    assert hashlib.sha256(data).hexdigest() == sha256


def test_best_assertions_golden(demo_board):
    costs = [pin.cost for pin in demo_board.pins]
    output = emit_alloy_best_assertions(parse_request("analog,icu,pwm"), min(costs), max(costs))
    data = output.text.encode("utf-8")
    assert (min(costs), max(costs)) == (2, 4)
    assert (output.kind, output.items, output.nbytes, len(data)) == ("alloy-assert", 7, 1646, 1646)
    assert hashlib.sha256(data).hexdigest() == (
        "977cb5b8734b2cae4e1aa7673a52bb6340b22197315ccf6c7a26c08d82483a95"
    )


@pytest.mark.parametrize(
    "args, message",
    [
        ((parse_request(""), 0, 0), "best-cost assertions need a nonempty request"),
        ((parse_request(""), 1, 2), "best-cost assertions need a nonempty request"),
        ((parse_request("icu"), 0, 1), "need 0 < pc_min <= pc_max"),
        ((parse_request("icu"), 3, 2), "need 0 < pc_min <= pc_max"),
    ],
    ids=["empty-and-bad-bounds", "empty", "zero-min", "min-over-max"],
)
def test_best_assertions_error_messages(args, message):
    """The request is checked before the cost bounds."""
    with pytest.raises(ValueError) as exc:
        emit_alloy_best_assertions(*args)
    assert str(exc.value) == message


def test_feasibility_assertion_error_message():
    with pytest.raises(ValueError) as exc:
        emit_alloy_feasibility_assertion(parse_request(""))
    assert str(exc.value) == "feasibility assertion needs a nonempty request"


def _first_bound_with_counterexample(pins, text):
    """The bound of the first assertion in text that has a counterexample, or None."""
    return next((a.bound for a in read_assertions(text) if has_counterexample(pins, a)), None)


def _check_alloy_read_back(board, spec, request):
    """The feasibility assertion has a counterexample iff find_feasible
    answers with an Assignment, and the first cost probe that has one is
    find_best's cost (none when the request is infeasible)."""
    pins = read_pins(spec)
    assert list(pins) == [pin.id for pin in board.pins]
    (feasibility,) = read_assertions(emit_alloy_feasibility_assertion(request).text)
    assert feasibility.kinds == request.slots
    feasible = isinstance(find_feasible(board, request), Assignment)
    assert has_counterexample(pins, feasibility) == feasible, (board, request)
    costs = [pin.cost for pin in board.pins]
    probes = emit_alloy_best_assertions(request, min(costs), max(costs))
    assert len(read_assertions(probes.text)) == probes.items
    best = find_best(board, request)
    expected = best.total_cost if isinstance(best, Assignment) else None
    assert _first_bound_with_counterexample(pins, probes.text) == expected, (board, request)


ALLOY_DEMO_REQUESTS = [DEMO_REQUEST, ",".join(["can-tx"] * 10)]


@pytest.mark.filterwarnings("ignore::pinassign.AllPinsUsedWarning")
def test_alloy_read_back_agrees_with_the_solver(demo_board):
    """The Alloy documents, read back by a reference evaluator, answer as
    the solver does: on every seeded instance with a nonempty request whose
    board emit_alloy_spec accepts, and on every nonempty prefix of the two
    demo requests. The emitters ignore eligibility rules, so none are set."""
    seeded = 0
    for seed in (2024, 7, 11):
        for board, request in instance_family(seed=seed, count=400):
            if request.length == 0:
                continue
            try:
                spec = emit_alloy_spec(board).text
            except ValueError:
                continue
            _check_alloy_read_back(board, spec, request)
            seeded += 1
    assert seeded == 1007
    spec = emit_alloy_spec(demo_board).text
    for text in ALLOY_DEMO_REQUESTS:
        kinds = text.split(",")
        for length in range(1, len(kinds) + 1):
            _check_alloy_read_back(demo_board, spec, parse_request(",".join(kinds[:length])))


def test_alloy_read_back_wraps_cost_sums_at_the_integer_scope(demo_board):
    """One bit less than the emitted scope lets a dear assignment's sum wrap
    below the cheapest bound, so the evaluator must read the scope."""
    pins = read_pins(emit_alloy_spec(demo_board).text)
    request = parse_request(DEMO_REQUEST)
    text = emit_alloy_best_assertions(request, 2, 4).text
    assert text.count(" for 7 int\n") == 21
    assert _first_bound_with_counterexample(pins, text) == 25
    assert find_best(demo_board, request).total_cost == 25
    narrow = text.replace(" for 7 int\n", " for 6 int\n")
    assert _first_bound_with_counterexample(pins, narrow) == 20


# --- DOT graph


def _dot_counts(text):
    nodes = len(re.findall(r"^\s+\w+ \[", text, flags=re.M))
    edges = len(re.findall(r"->", text))
    return nodes, edges


def test_dot_structure_two_pins(two_pin_board):
    output = emit_graph_dot(two_pin_board)
    nodes, edges = _dot_counts(output.text)
    assert nodes == 4
    assert edges == 2 * 1 + 2 * 2  # n*(n-1) + 2n for n=2
    assert "PA1 -> PA1" not in output.text
    assert "n_B -> n_E" not in output.text
    assert output.items == nodes + edges


def test_dot_empty_board():
    output = emit_graph_dot(Board(()))
    nodes, edges = _dot_counts(output.text)
    assert nodes == 2
    assert edges == 1
    assert "n_B -> n_E;" in output.text
    assert output.items == nodes + edges


def test_dot_counts_formula_on_random_boards():
    rng = random.Random(34)
    for _ in range(8):
        board = random_board(rng, max_pins=6)
        n = len(board)
        output = emit_graph_dot(board)
        nodes, edges = _dot_counts(output.text)
        assert nodes == n + 2
        assert edges == n * (n - 1) + 2 * n
        assert output.items == nodes + edges


def test_dot_labels_list_entries(two_pin_board):
    text = emit_graph_dot(two_pin_board).text
    assert 'label="PA1\\nANALOG/ADC1_IN1\\nICU/TIM2_CH2\\nICU/TIM5_CH2"' in text


@pytest.mark.parametrize(
    "pin_id", ["n_B", "n_E", "Node", "EDGE", "graph", "Digraph", "subgraph", "strict"]
)
def test_dot_refuses_keyword_and_virtual_node_ids(pin_id):
    """A bare DOT ID equal to a keyword (in any case) starts a statement, and
    one equal to n_B or n_E merges with that virtual node."""
    with pytest.raises(ValueError, match=f"pin id '{pin_id}' is a DOT keyword or virtual node"):
        emit_graph_dot(parse_board(f"pin PA1 = PWM\npin {pin_id} = ANALOG"))


def test_dot_accepts_ids_near_the_reserved_ones():
    # DOT IDs are case-sensitive, so n_b is not the begin node n_B.
    board = parse_board("pin n_b = ANALOG\npin nodes = PWM\npin strict1 = ICU")
    nodes, edges = _dot_counts(emit_graph_dot(board).text)
    assert (nodes, edges) == (5, 12)
