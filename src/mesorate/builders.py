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

ChannelTable.stack assembles the generators of n rows of rate columns
and decides every refused row, in the order a point alone is checked:
the RateSet rule, then equal amplitudes, then a generator entry leaving
the float range.  generator(r) is its one-row case.

The same table is the one source of the collector weights: weight_columns
(weights at one RateSet) maps the source state of each system collector,
detector collector and detector backflow channel to its width, and
observables.currents reads every current through those maps.

Multi-term cells are math.fsum, the correctly rounded sum in any order.
One sign-of-zero rule compiles every scenario: a single-term cell holds
its field as is and a loss cell is the negated sum, so an all-zero loss
reads -0.0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import repeat
from math import fsum

import numpy as np

from .model import (Generator, IndexMap, RateColumns, RateSet, equal_amplitude_rows,
                    fixed_columns, refused_rows, take_rows)

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


@dataclass(frozen=True)
class BlockingConfig:
    """Which system configurations block the detector entry channel.

    blocked_when_dot1 / blocked_when_dot2: an electron in that dot lifts
    the detector level above the left detector Fermi level, so nothing can
    enter the detector.  A detector electron that is already inside while
    the configuration is blocked sits above that Fermi level, so it may
    also leave back to the left reservoir at gamma_L (the backflow channel).
    """

    blocked_when_dot1: bool
    blocked_when_dot2: bool

    @classmethod
    def blocked_on_second_dot(cls) -> "BlockingConfig":
        """REGIMES["resolving"]; kept for the benchmark oracle
        (perfbench/oracle.py), its one caller."""
        return REGIMES["resolving"]


# The detector regimes, each the blocking that a detector Fermi level sets
# (run_fermi_sweep) and the [run] blocking of the generalized scenario:
# blind to which dot is occupied (the entry shuts for either), resolving
# the second dot only, or open for both (extrapolated: validated against no
# closed form and kept out of the validation suite).
REGIMES = {
    "blind": BlockingConfig(True, True),
    "resolving": BlockingConfig(False, True),
    "open": BlockingConfig(False, False),
}


@dataclass(frozen=True)
class Channel:
    """Population transfer from source to destination at a RateSet width."""

    source: str
    destination: str
    rate: str
    kind: str


@dataclass(frozen=True)
class ChannelTable:
    """One scenario, compiled by the module's one rule set, sign of zero
    included.  Detuning terms are (RateSet field, sign), dephasing lists
    pure-dephasing widths."""

    label: str
    index: IndexMap
    channels: tuple[Channel, ...]
    coherences: tuple = ()
    dephasing: tuple[str, ...] = ()
    equal_amplitudes: bool = False

    @cached_property
    def _cells(self):
        pos = {lab: self.index.diagonal(lab) for lab in self.index.diagonal_labels}
        cells = {}                      # (row, col) -> (coefficient, terms)
        for ch in self.channels:                                        # rule 1
            src, dst = pos[ch.source], pos[ch.destination]
            cells.setdefault((dst, src), (1.0, []))[1].append((ch.rate, 1.0))
            cells.setdefault((src, src), (-1.0, []))[1].append((ch.rate, 1.0))

        exits = {(ch.source, ch.destination, ch.rate) for ch in self.channels
                 if ch.kind in (DETECTOR_COLLECTOR, DETECTOR_BACKFLOW)}
        omega = [("Omega", 1.0)]
        for (p, q), detuning in self.coherences:
            u, v = self.index.coherence((p, q))
            rates = [ch.rate for ch in self.channels if ch.source in (p, q)] + list(self.dephasing)
            cells[(u, u)] = cells[(v, v)] = (-0.5, [(f, 1.0) for f in rates])      # rule 2
            for row, col, coef, terms in ((u, v, -1.0, detuning), (v, u, 1.0, detuning),  # rule 3
                                          (pos[p], v, -2.0, omega), (pos[q], v, 2.0, omega),
                                          (v, pos[p], 1.0, omega), (v, pos[q], -1.0, omega)):
                cells[(row, col)] = (coef, terms)
            for (p2, q2), _ in self.coherences:                         # rule 4
                feed = [(f, 1.0) for src, dst, f in sorted(exits)
                        if (src, dst) == (p, p2) and (q, q2, f) in exits]
                if feed:
                    u2, v2 = self.index.coherence((p2, q2))
                    cells[(u2, u)] = cells[(v2, v)] = (1.0, feed)

        keys = [tuple(terms) for _, terms in cells.values()]
        quantities = list(dict.fromkeys(keys))
        of = [quantities.index(key) for key in keys]
        gains = [0.0] * len(quantities)     # largest |coefficient| applied to each quantity
        for k, (coef, _) in zip(of, cells.values()):
            gains[k] = max(gains[k], abs(coef))
        return (quantities, np.array([row * len(self.index) + col for row, col in cells]),
                np.array([coef for coef, _ in cells.values()]), np.array(of), gains)

    def stack(self, columns: RateColumns,
              n: int) -> tuple[np.ndarray, int, ValueError | None]:
        """Generator matrices of n rows of rate columns, up to the first
        row refused, shape (first, dim, dim): each compiled cell is its
        coefficient times a quantity, the single term of a quantity as is,
        else the fsum of its terms.  Also that first refused row (n if none)
        and its ValueError (else None).  A row is checked in the order a
        point alone is: the RateSet rule (model.refused_rows), then unequal
        amplitudes where the scenario assumes them equal, then a quantity
        whose cells would leave the float range, naming its fields.

        A quantity that reads no array column is evaluated once, a one-term
        one is a column product and a summed one that reads an array column
        keeps its per-row fsum, so every row has the bits of its point alone.
        """
        keys, flat, coefs, of, gains = self._cells
        valid, error = refused_rows(columns, n)
        accepted = take_rows(columns, slice(valid))     # the rows the RateSet rule accepts
        unequal = np.zeros(valid, dtype=bool)
        if self.equal_amplitudes:
            unequal |= ~np.asarray(equal_amplitude_rows(accepted))
        q = np.empty((valid, len(keys)))
        for k, terms in enumerate(keys):
            values = [s * accepted[f] for f, s in terms]
            if len(terms) == 1:
                q[:, k] = values[0]
            elif not any(isinstance(v, np.ndarray) for v in values):
                q[:, k] = _fsum_or_nan(values)
            else:
                rows = list(zip(*[v.tolist() if isinstance(v, np.ndarray) else repeat(v, valid)
                                  for v in values]))
                try:
                    q[:, k] = list(map(fsum, rows))
                except OverflowError:   # a row whose exact sum leaves the float range
                    q[:, k] = list(map(_fsum_or_nan, rows))
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(q * gains)
        refused = unequal | ~finite.all(axis=1)
        first = valid
        if refused.any():
            first = int(refused.argmax())
            if unequal[first]:
                error = ValueError(f"{self.label} assumes equal tunneling amplitudes; "
                                   "primed widths must equal unprimed ones")
            else:
                fields = [f for terms, ok in zip(keys, finite[first].tolist()) if not ok
                          for f, _ in terms]
                error = ValueError(f"rates too large for {self.label}: a generator entry from "
                                   f"{', '.join(dict.fromkeys(fields))} overflows the float range")
        dim = len(self.index)
        g = np.zeros((first, dim * dim))
        g[:, flat] = coefs * q[:first, of]
        return g.reshape(first, dim, dim), first, error

    def generator(self, r: RateSet) -> Generator:
        """The one-row case of stack; a refused point raises its error."""
        matrices, _, error = self.stack(fixed_columns(r), 1)
        if error is not None:
            raise error
        return Generator(matrices[0], self.index, self.label)

    @cached_property
    def _weight_fields(self) -> dict[str, dict[str, str]]:
        return {name: {ch.source: ch.rate for ch in self.channels if ch.kind == kind}
                for name, kind in (("system", SYSTEM_COLLECTOR), ("detector", DETECTOR_COLLECTOR),
                                   ("detector_return", DETECTOR_BACKFLOW))}

    def weight_columns(self, columns: RateColumns) -> dict[str, dict]:
        """Source label -> width, for the system collector, the detector
        collector and the detector backflow channels; a width is a float or
        a column, as its field is in the rate columns.  detector_return
        (the backflow) is a diagnostic, the rate at which blocked detector
        electrons leave back into the left reservoir, not part of any
        validated current balance."""
        return {name: {label: columns[f] for label, f in fields.items()}
                for name, fields in self._weight_fields.items()}

    def weights(self, r: RateSet) -> dict[str, dict[str, float]]:
        """The one-row case of weight_columns."""
        return self.weight_columns(fixed_columns(r))


def _fsum_or_nan(terms) -> float:
    """fsum, or NaN where the exact sum leaves the float range."""
    try:
        return fsum(terms)
    except OverflowError:
        return np.nan


def scenario_table(scenario: str, blocking: BlockingConfig | None = None) -> ChannelTable:
    """The table of a scenario: one or two dots in series, the emitter
    filling the first from a and the collector emptying the last into a,
    plus a detector joining each s to s' under the scenario's blocking.
    single_dot_set and double_dot_set fix theirs (REGIMES "blind" and
    "resolving"), the generalized scenario takes it as an argument, and a
    scenario given a blocking it does not take is refused.  Each scenario
    is compiled once per blocking it runs under, however it was asked for."""
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}")
    if scenario == GENERALIZED_DOUBLE_DOT_SET and blocking is None:
        raise ValueError("the generalized scenario needs a BlockingConfig")
    if scenario != GENERALIZED_DOUBLE_DOT_SET and blocking is not None:
        raise ValueError(f"{scenario} fixes its own blocking and takes no BlockingConfig")
    blocking = {SINGLE_DOT_SET: REGIMES["blind"],     # the one dot blocks
                DOUBLE_DOT_SET: REGIMES["resolving"]}.get(scenario, blocking)
    return _compiled_table(scenario, blocking)


@lru_cache(maxsize=None)
def _compiled_table(scenario: str, blocking: BlockingConfig | None) -> ChannelTable:
    """The table of a scenario under its effective blocking (None: no
    detector).  A width is primed when the other subsystem is occupied
    while it tunnels; the monitored coupled dots require equal amplitudes
    and use unprimed widths."""
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
            if blocked[dot]:
                channels.append(Channel(s + "'", s, width("gamma_L", dot), DETECTOR_BACKFLOW))
        if coherences:
            # the detector electron shifts the dot levels by U1 and U2
            coherences.append((("b'", "c'"), (("epsilon", 1.0), ("U1", -1.0), ("U2", 1.0))))
    index = (IndexMap(("a", "b", "a'", "b'")) if scenario == SINGLE_DOT_SET
             else IndexMap(("a", "b", "c"), (("b", "c"),)) if blocking is None
             else IndexMap(("a", "a'", "b", "b'", "c", "c'"), (("b", "c"), ("b'", "c'"))))
    return ChannelTable(scenario, index, tuple(channels), tuple(coherences),
                        ("gamma_L",) if scenario == REDUCED_DOUBLE_DOT else (),
                        equal_amplitudes)


def build_generalized_double_dot_set(r: RateSet, cfg: BlockingConfig) -> Generator:
    """scenario_table(GENERALIZED_DOUBLE_DOT_SET, cfg).generator(r); kept
    for the benchmark oracle (perfbench/oracle.py), its one caller."""
    return scenario_table(GENERALIZED_DOUBLE_DOT_SET, cfg).generator(r)
