"""Generator construction for each transport scenario, from one channel
table per scenario.

State labels: the measured system is empty (a), occupies the first dot
(b) or the second dot (c); primed labels mark the same configuration with
the detector dot occupied.  The single-dot scenario has no c states.

A ChannelTable holds one scenario's quantum rate equations (Gurvitz &
Prager, PRB 53, 15932 (1996)) and is compiled once into generator cells:

1. a channel at rate k adds +k in its destination row and -k on its
   source diagonal;
2. each coherence decays at half the summed rates of all channels leaving
   its two member states, plus the pure-dephasing width;
3. every pair hops at Omega between its member occupations, and its
   detuning rotates its (Re, Im) slots into each other;
4. a detector exit (collector or backflow) at the same rate from both
   members of a pair keeps the superposition and feeds the pair of their
   destinations at that rate.  Detector entry has no such counterpart, so
   entry open for both dots dephases without a coherent entry transfer.

Multi-term cells are math.fsum, the correctly rounded sum in any order.
Sign-of-zero rule: a single-term cell holds its width as is and a loss
cell is the negated sum, so an all-zero loss reads -0.0; the generalized
scenario sums every rate cell with fsum over signed terms, giving +0.0.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import fsum, isfinite
from operator import mul

import numpy as np

from .model import Generator, IndexMap, RateSet

SINGLE_DOT_SET = "single_dot_set"
DOUBLE_DOT_BARE = "double_dot_bare"
DOUBLE_DOT_SET = "double_dot_set"
REDUCED_DOUBLE_DOT = "reduced_double_dot"
GENERALIZED_DOUBLE_DOT_SET = "generalized_double_dot_set"

SCENARIOS = (
    SINGLE_DOT_SET,
    DOUBLE_DOT_BARE,
    DOUBLE_DOT_SET,
    REDUCED_DOUBLE_DOT,
    GENERALIZED_DOUBLE_DOT_SET,
)

SYSTEM_EMITTER = "system emitter"
SYSTEM_COLLECTOR = "system collector"
DETECTOR_ENTRY = "detector entry"
DETECTOR_COLLECTOR = "detector collector"
DETECTOR_BACKFLOW = "detector backflow"


def index_single_dot_set() -> IndexMap:
    return IndexMap(("a", "b", "a'", "b'"))


def index_double_dot() -> IndexMap:
    return IndexMap(("a", "b", "c"), (("b", "c"),))


def index_double_dot_set() -> IndexMap:
    return IndexMap(("a", "a'", "b", "b'", "c", "c'"), (("b", "c"), ("b'", "c'")))


@dataclass(frozen=True)
class BlockingConfig:
    """Which system configurations block the detector entry channel.

    blocked_when_dot1 / blocked_when_dot2: an electron in that dot lifts
    the detector level above the left detector Fermi level, so nothing can
    enter the detector.  backflow_when_blocked: a detector electron that
    is already inside while the configuration is blocked sits above that
    Fermi level and may also leave back to the left reservoir at gamma_L.
    """

    blocked_when_dot1: bool
    blocked_when_dot2: bool
    backflow_when_blocked: bool = True

    @classmethod
    def blocked_on_second_dot(cls) -> "BlockingConfig":
        """Detector resolves the second dot only (entry open for dot 1)."""
        return cls(False, True, True)

    @classmethod
    def blocked_on_either_dot(cls) -> "BlockingConfig":
        """Detector entry shuts for either dot; it cannot tell them apart."""
        return cls(True, True, True)

    @classmethod
    def unrestricted(cls) -> "BlockingConfig":
        """Entry open regardless of the system state.

        Extrapolated configuration: not validated against any closed-form
        result, kept out of the validation suite.
        """
        return cls(False, False, True)


@dataclass(frozen=True)
class Channel:
    """Population transfer from source to destination at a RateSet width."""

    source: str
    destination: str
    rate: str
    kind: str


@dataclass(frozen=True)
class ChannelTable:
    """One scenario.  Detuning terms are (RateSet field, sign), dephasing
    lists pure-dephasing widths; rule_sums picks the generalized
    scenario's sign-of-zero rule."""

    label: str
    index: IndexMap
    channels: tuple[Channel, ...]
    coherences: tuple = ()
    dephasing: tuple[str, ...] = ()
    equal_amplitudes: bool = False
    rule_sums: bool = False

    @cached_property
    def _cells(self):
        pos = {lab: self.index.diagonal(lab) for lab in self.index.diagonal_labels}
        forced = self.rule_sums
        loss, loss_sign = (1.0, -1.0) if forced else (-1.0, 1.0)    # sign-of-zero rule
        cells = {}                      # (row, col) -> (coefficient, terms, forced)
        for ch in self.channels:                                        # rule 1
            src, dst = pos[ch.source], pos[ch.destination]
            cells.setdefault((dst, src), (1.0, [], forced))[1].append((ch.rate, 1.0))
            cells.setdefault((src, src), (loss, [], forced))[1].append((ch.rate, loss_sign))

        exits = {(ch.source, ch.destination, ch.rate) for ch in self.channels
                 if ch.kind in (DETECTOR_COLLECTOR, DETECTOR_BACKFLOW)}
        omega = [("Omega", 1.0)]
        for (p, q), detuning in self.coherences:
            u, v = self.index.coherence((p, q))
            rates = [ch.rate for ch in self.channels if ch.source in (p, q)] + list(self.dephasing)
            cells[(u, u)] = cells[(v, v)] = (-0.5, [(f, 1.0) for f in rates], forced)  # rule 2
            for row, col, coef, terms in ((u, v, -1.0, detuning), (v, u, 1.0, detuning),  # rule 3
                                          (pos[p], v, -2.0, omega), (pos[q], v, 2.0, omega),
                                          (v, pos[p], 1.0, omega), (v, pos[q], -1.0, omega)):
                cells[(row, col)] = (coef, terms, False)
            for (p2, q2), _ in self.coherences:                         # rule 4
                feed = [(f, 1.0) for src, dst, f in sorted(exits)
                        if (src, dst) == (p, p2) and (q, q2, f) in exits]
                if feed:
                    u2, v2 = self.index.coherence((p2, q2))
                    cells[(u2, u)] = cells[(v2, v)] = (1.0, feed, forced)

        keys = [(tuple(terms), force) for _, terms, force in cells.values()]
        quantities = list(dict.fromkeys(keys))
        of = [quantities.index(key) for key in keys]
        gains = [0.0] * len(quantities)     # largest |coefficient| applied to each quantity
        for k, (coef, _, _) in zip(of, cells.values()):
            gains[k] = max(gains[k], abs(coef))
        return (quantities, np.array([row * len(self.index) + col for row, col in cells]),
                np.array([coef for coef, _, _ in cells.values()]), np.array(of), gains)

    def quantities(self, r: RateSet) -> array:
        """The compiled cells' quantities at r: the single term of a
        quantity as is, else the fsum of its terms.  A packed array of
        doubles, so a sweep holding one row per grid point stays small.
        A quantity whose cells would leave the float range raises a
        ValueError naming its fields."""
        if self.equal_amplitudes and not r.is_equal_amplitudes:
            raise ValueError(f"{self.label} assumes equal tunneling amplitudes; "
                             "primed widths must equal unprimed ones")
        keys, gains = self._cells[0], self._cells[4]
        try:
            q = array("d", [fsum([s * getattr(r, f) for f, s in terms])
                            if force or len(terms) != 1 else terms[0][1] * getattr(r, terms[0][0])
                            for terms, force in keys])
            if all(map(isfinite, map(mul, gains, q))):
                return q
        except OverflowError:       # fsum raises when its exact sum leaves the float range
            pass
        fields = []
        for (terms, _), gain in zip(keys, gains):
            try:
                finite = isfinite(gain * fsum([s * getattr(r, f) for f, s in terms]))
            except OverflowError:
                finite = False
            fields += [] if finite else [f for f, _ in terms]
        raise ValueError(f"rates too large for {self.label}: a generator entry from "
                         f"{', '.join(dict.fromkeys(fields))} overflows the float range")

    def stack(self, quantities) -> np.ndarray:
        """Generator matrices, shape (N, dim, dim), from N rows of
        quantities: each compiled cell is its coefficient times a quantity."""
        keys, flat, coefs, of, _ = self._cells
        q = np.array(quantities, dtype=float).reshape(-1, len(keys))
        dim = len(self.index)
        g = np.zeros((len(q), dim * dim))
        g[:, flat] = coefs * q[:, of]
        return g.reshape(-1, dim, dim)

    def generator(self, r: RateSet) -> Generator:
        """The one-row case of stack."""
        return Generator(self.stack([self.quantities(r)])[0], self.index, self.label)

    def weights(self, r: RateSet) -> dict[str, dict[str, float]]:
        """Source label -> width, for the system collector, the detector
        collector and the detector backflow channels."""
        return {name: {ch.source: getattr(r, ch.rate) for ch in self.channels if ch.kind == kind}
                for name, kind in (("system", SYSTEM_COLLECTOR), ("detector", DETECTOR_COLLECTOR),
                                   ("detector_return", DETECTOR_BACKFLOW))}


@lru_cache(maxsize=None)
def scenario_table(scenario: str, blocking: BlockingConfig | None = None) -> ChannelTable:
    """The table of a scenario: one or two dots in series, the emitter
    filling the first from a and the collector emptying the last into a,
    plus a detector joining each s to s' under the scenario's blocking
    (the generalized scenario takes it as an argument).  A width is primed
    when the other subsystem is occupied while it tunnels; the monitored
    coupled dots require equal amplitudes and use unprimed widths."""
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}")
    if scenario == GENERALIZED_DOUBLE_DOT_SET and blocking is None:
        raise ValueError("the generalized scenario needs a BlockingConfig")
    blocking = {SINGLE_DOT_SET: BlockingConfig.blocked_on_either_dot(),  # the one dot blocks
                DOUBLE_DOT_SET: BlockingConfig.blocked_on_second_dot(),
                GENERALIZED_DOUBLE_DOT_SET: blocking}.get(scenario)
    states = ("a", "b") if scenario == SINGLE_DOT_SET else ("a", "b", "c")
    equal_amplitudes = len(states) == 3 and blocking is not None

    def width(name: str, primed) -> str:
        return f"{name}_p" if primed and not equal_amplitudes else name

    channels = []
    for det in ("",) if blocking is None else ("", "'"):
        channels += [Channel("a" + det, "b" + det, width("Gamma_L", det), SYSTEM_EMITTER),
                     Channel(states[-1] + det, "a" + det, width("Gamma_R", det), SYSTEM_COLLECTOR)]
    coherences = [(("b", "c"), (("epsilon", 1.0),))] if len(states) == 3 else []
    if blocking is not None:
        blocked = (False, blocking.blocked_when_dot1, blocking.blocked_when_dot2)
        for dot, s in enumerate(states):
            if not blocked[dot]:
                channels.append(Channel(s, s + "'", width("gamma_L", dot), DETECTOR_ENTRY))
            channels.append(Channel(s + "'", s, width("gamma_R", dot), DETECTOR_COLLECTOR))
            if blocked[dot] and blocking.backflow_when_blocked:
                channels.append(Channel(s + "'", s, width("gamma_L", dot), DETECTOR_BACKFLOW))
        if coherences:
            # the detector electron shifts the dot levels by U1 and U2
            coherences.append((("b'", "c'"), (("epsilon", 1.0), ("U1", -1.0), ("U2", 1.0))))
    index = (index_single_dot_set() if scenario == SINGLE_DOT_SET
             else index_double_dot_set() if blocking is not None else index_double_dot())
    return ChannelTable(scenario, index, tuple(channels), tuple(coherences),
                        ("gamma_L",) if scenario == REDUCED_DOUBLE_DOT else (),
                        equal_amplitudes, scenario == GENERALIZED_DOUBLE_DOT_SET)


def build_single_dot_set(r: RateSet) -> Generator:
    """Single-level dot plus detector: four occupations, no coherences."""
    return scenario_table(SINGLE_DOT_SET).generator(r)


def build_double_dot_bare(r: RateSet) -> Generator:
    """Coupled dots without a detector, layout [a, b, c, Re, Im]."""
    return scenario_table(DOUBLE_DOT_BARE).generator(r)


def build_reduced_double_dot(r: RateSet) -> Generator:
    """Coupled dots with the fast detector folded into pure dephasing."""
    return scenario_table(REDUCED_DOUBLE_DOT).generator(r)


def build_double_dot_set(r: RateSet) -> Generator:
    """Coupled dots plus detector, entry blocked by the second dot only."""
    return scenario_table(DOUBLE_DOT_SET).generator(r)


def build_generalized_double_dot_set(r: RateSet, cfg: BlockingConfig) -> Generator:
    """Coupled dots plus detector with configurable entry blocking."""
    return scenario_table(GENERALIZED_DOUBLE_DOT_SET, cfg).generator(r)


def build_scenario(scenario: str, r: RateSet,
                   blocking: BlockingConfig | None = None) -> Generator:
    """Build the generator of a scenario label."""
    return scenario_table(scenario, blocking).generator(r)
