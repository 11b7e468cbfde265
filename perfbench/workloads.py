"""Seeded, linear-time input generators and the workload table.

Everything a run feeds to transodb is made here from ``--seed``: the
bench-schema records (Person/Employee), a wide generated schema with its
records, and the transaction stream of the ``txn`` phase. The same seed
gives the same bytes. The library's own ``synthesize_graph`` is never
called by a run; the benchmark's tests check that ``BenchRecords`` draws
the same values, so per-record figures stay comparable with the ROADMAP table.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator

from transodb import ObjectRecord, Oid


@dataclass(frozen=True)
class Workload:
    name: str
    schema: str  # "bench" (bundled Person/Employee) or "wide" (generated)
    bulk_records: int  # records of the document the CLI moves
    preload_records: int  # records in the store each txn epoch starts from


# Every workload runs both phases, so every run reports every end-to-end
# metric; the sizes decide which phase dominates (see README.md).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("bulk-small", "bench", 16_000, 2_000),
        Workload("bulk-wide", "wide", 2_000, 1_000),
        Workload("txn", "bench", 10_000, 10_000),
    )
}
TXNS_PER_EPOCH = 100


class Lcg:
    """64-bit LCG with the same constants and draws as ``transodb.graph.Lcg``."""

    MULTIPLIER = 6364136223846793005
    INCREMENT = 1442695040888963407
    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def below(self, bound: int) -> int:
        self.state = (self.state * self.MULTIPLIER + self.INCREMENT) & self.MASK
        return self.state % bound

    def chance(self, percent: int) -> bool:
        return self.below(100) < percent


_ALPHABET = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 _.-"
_ALPHABET_LEN = len(_ALPHABET)
_MARKUP = '&<>"'


def random_string(rng: Lcg, max_len: int = 32) -> str:
    length = 1 + rng.below(max_len)
    # rng.below(len(_ALPHABET)) per character, inlined: this loop is most
    # of the generators' time.
    state, mul, inc, mask = rng.state, Lcg.MULTIPLIER, Lcg.INCREMENT, Lcg.MASK
    chars = []
    for _ in range(length):
        state = (state * mul + inc) & mask
        chars.append(_ALPHABET[state % _ALPHABET_LEN])
    rng.state = state
    if rng.chance(10):
        chars[rng.below(length)] = _MARKUP[rng.below(len(_MARKUP))]
    return "".join(chars)


class BenchRecords:
    """Records o0, o1, ... over the bundled Person/Employee schema.

    Draw for draw the same as ``synthesize_graph``, but picks a manager by
    index instead of copying the employee list for every employee, so
    generation is linear in n. Every reference points at an earlier or
    equal index, so any prefix is a closed graph."""

    def __init__(self, seed: int):
        self.rng = Lcg(seed)
        self.i = 0
        self.employees: list[int] = []

    def next(self) -> ObjectRecord:
        rng, i = self.rng, self.i
        is_employee = rng.chance(50)
        values: dict = {"name": random_string(rng), "age": rng.below(100)}
        if rng.chance(60):
            values["email"] = random_string(rng)
        if rng.chance(50):
            values["spouse"] = Oid(f"o{rng.below(i + 1)}")
        friends = [Oid(f"o{rng.below(i + 1)}") for _ in range(rng.below(4))]
        if friends:
            values["friends"] = friends
        class_name = "Person"
        if is_employee:
            class_name = "Employee"
            values["salary"] = rng.below(10_000_000) / 100.0
            if rng.chance(50):
                pick = rng.below(len(self.employees) + 1)
                boss = self.employees[pick] if pick < len(self.employees) else i
                values["manager"] = Oid(f"o{boss}")
            self.employees.append(i)
        self.i += 1
        return ObjectRecord(class_name, Oid(f"o{i}"), values)


# -- wide schema --------------------------------------------------------------

WIDE_CHAINS = 50
WIDE_DEPTH = 8
# (field-name prefix, XSD type, repeated); "REF" becomes a class name.
_WIDE_KINDS = (
    ("s", "xs:string", False),
    ("n", "xs:long", False),
    ("d", "xs:double", False),
    ("b", "xs:boolean", False),
    ("ln", "xs:long", True),
    ("ls", "xs:string", True),
    ("r", "REF", False),
    ("lr", "REF", True),
)
_WIDE_OWN_FIELDS = 4


def _wide_class(chain: int, depth: int) -> str:
    return f"W{chain}_{depth}"


def _wide_ref_chain(chain: int, depth: int) -> int:
    return (chain * 7 + depth + 1) % WIDE_CHAINS


def _wide_own_fields(chain: int, depth: int):
    """(name, prefix, xsd type, repeated, optional) of one class's own fields."""
    out = []
    for j in range(_WIDE_OWN_FIELDS):
        prefix, xsd_type, repeated = _WIDE_KINDS[(chain + 2 * depth + j) % len(_WIDE_KINDS)]
        if xsd_type == "REF":
            xsd_type = _wide_class(_wide_ref_chain(chain, depth), 1)
        optional = repeated or prefix == "r" or j % 2 == 1
        out.append((f"{prefix}{depth}", prefix, xsd_type, repeated, optional))
    return out


def wide_schema_xsd() -> str:
    """About 400 classes: a root ``Base`` and 50 chains ``W<c>_1 .. W<c>_8``,
    each level adding four fields. Reference fields point at the first
    class of another chain, so type checks walk up to seven levels."""
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">',
        '  <xs:complexType name="Base">',
        "    <xs:sequence>",
        '      <xs:element name="name" type="xs:string"/>',
        '      <xs:element name="created" type="xs:long"/>',
        "    </xs:sequence>",
        "  </xs:complexType>",
    ]
    for chain in range(WIDE_CHAINS):
        for depth in range(1, WIDE_DEPTH + 1):
            base = "Base" if depth == 1 else _wide_class(chain, depth - 1)
            lines += [
                f'  <xs:complexType name="{_wide_class(chain, depth)}">',
                "    <xs:complexContent>",
                f'      <xs:extension base="{base}">',
                "        <xs:sequence>",
            ]
            for name, _, xsd_type, repeated, optional in _wide_own_fields(chain, depth):
                attrs = f'name="{name}" type="{xsd_type}"'
                if optional:
                    attrs += ' minOccurs="0"'
                if repeated:
                    attrs += ' maxOccurs="unbounded"'
                lines.append(f"          <xs:element {attrs}/>")
            lines += [
                "        </xs:sequence>",
                "      </xs:extension>",
                "    </xs:complexContent>",
                "  </xs:complexType>",
            ]
    lines.append("</xs:schema>")
    return "\n".join(lines) + "\n"


class WideRecords:
    """Records o0, o1, ... over ``wide_schema_xsd()``: each is an instance of
    a class 6 to 8 levels deep, so it carries 26 to 34 declared fields.
    References go only to earlier records, so any prefix is closed."""

    def __init__(self, seed: int):
        self.rng = Lcg(seed)
        self.i = 0
        self.by_chain: list[list[int]] = [[] for _ in range(WIDE_CHAINS)]
        self.own_fields = {
            (c, d): _wide_own_fields(c, d)
            for c in range(WIDE_CHAINS)
            for d in range(1, WIDE_DEPTH + 1)
        }

    def _scalar(self, prefix: str):
        rng = self.rng
        if prefix in ("s", "ls"):
            return random_string(rng, 16)
        if prefix in ("n", "ln"):
            return rng.below(2_000_000_000) - 1_000_000_000
        if prefix == "d":
            return rng.below(100_000_000) / 100.0
        return rng.chance(50)

    def _ref(self, chain: int) -> Oid | None:
        earlier = self.by_chain[chain]
        if not earlier:
            return None
        return Oid(f"o{earlier[self.rng.below(len(earlier))]}")

    def next(self) -> ObjectRecord:
        rng, i = self.rng, self.i
        chain = rng.below(WIDE_CHAINS)
        depth = WIDE_DEPTH - rng.below(3)
        values: dict = {"name": random_string(rng, 16), "created": rng.below(1 << 40)}
        for level in range(1, depth + 1):
            for name, prefix, _, repeated, optional in self.own_fields[chain, level]:
                if optional and rng.chance(10):
                    continue
                target = _wide_ref_chain(chain, level)
                if prefix == "r":
                    ref = self._ref(target)
                    if ref is not None:
                        values[name] = ref
                elif prefix == "lr":
                    if self.by_chain[target]:
                        values[name] = [self._ref(target) for _ in range(1 + rng.below(3))]
                elif repeated:
                    values[name] = [self._scalar(prefix) for _ in range(1 + rng.below(3))]
                else:
                    values[name] = self._scalar(prefix)
        self.by_chain[chain].append(i)
        self.i += 1
        return ObjectRecord(_wide_class(chain, depth), Oid(f"o{i}"), values)


def record_source(schema: str, seed: int):
    return BenchRecords(seed) if schema == "bench" else WideRecords(seed)


@dataclass
class Txn:
    records: list[ObjectRecord]
    gets: list[Oid]  # point reads issued after this transaction commits


GETS_PER_TXN = 4
MAX_PUTS_PER_TXN = 8


def txn_stream(new_records: Iterator[ObjectRecord], stored: int, count: int, seed: int) -> list[Txn]:
    """``count`` transactions against a store holding o0 .. o<stored-1>.

    Each puts the next 1 to 8 records of ``new_records`` (which continue
    the OID sequence, so their references point at stored or
    same-transaction records) and is followed by uniformly chosen point
    reads of committed OIDs."""
    rng = Lcg(seed ^ 0x5DEECE66D)
    out = []
    for _ in range(count):
        records = list(islice(new_records, 1 + rng.below(MAX_PUTS_PER_TXN)))
        stored += len(records)
        gets = [Oid(f"o{rng.below(stored)}") for _ in range(GETS_PER_TXN)]
        out.append(Txn(records, gets))
    return out
