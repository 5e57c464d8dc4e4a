"""Lattice laws of the extended property lattice and the pass domains.

Seeded property tests (plain ``random`` — deterministic, no external
dependency) over the full ``Prop`` set including ``PERMUTATION``:

* ``closure`` is extensive, idempotent, and monotone;
* ``join`` / ``meet`` are commutative, associative, idempotent (modulo
  closure), and monotone in each argument;
* the implication order is respected (``join`` never invents knowledge,
  ``meet`` never loses any);
* domain transfer functions are monotone on random abstract states:
  analyzing with *less* initial knowledge never yields *more* derived
  knowledge.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.properties import Prop, closure, join, meet

ALL_PROPS = list(Prop)


def random_sets(seed: int, count: int = 60) -> list[frozenset[Prop]]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        k = rng.randint(0, len(ALL_PROPS))
        out.append(frozenset(rng.sample(ALL_PROPS, k)))
    return out


class TestClosure:
    @pytest.mark.parametrize("seed", range(5))
    def test_extensive_and_idempotent(self, seed):
        for s in random_sets(seed):
            c = closure(s)
            assert s <= c
            assert closure(c) == c

    @pytest.mark.parametrize("seed", range(5))
    def test_monotone(self, seed):
        sets = random_sets(seed)
        for a, b in zip(sets, sets[1:]):
            assert closure(a & b) <= closure(a) & closure(b)
            assert closure(a) | closure(b) <= closure(a | b)

    def test_new_implications(self):
        assert Prop.INJECTIVE in closure({Prop.PERMUTATION})
        assert Prop.PERMUTATION in closure({Prop.IDENTITY})
        assert Prop.MONO_INC in closure({Prop.IDENTITY})
        # no reverse implications
        assert Prop.PERMUTATION not in closure({Prop.INJECTIVE})
        assert Prop.STRICT_INC not in closure({Prop.PERMUTATION})


class TestJoinMeet:
    @pytest.mark.parametrize("seed", range(5))
    def test_commutative(self, seed):
        sets = random_sets(seed)
        for a, b in zip(sets, sets[1:]):
            assert join(a, b) == join(b, a)
            assert meet(a, b) == meet(b, a)

    @pytest.mark.parametrize("seed", range(5))
    def test_associative(self, seed):
        sets = random_sets(seed)
        for a, b, c in zip(sets, sets[1:], sets[2:]):
            assert join(join(a, b), c) == join(a, join(b, c))
            assert meet(meet(a, b), c) == meet(a, meet(b, c))

    @pytest.mark.parametrize("seed", range(5))
    def test_idempotent(self, seed):
        for a in random_sets(seed):
            assert join(a, a) == closure(a)
            assert meet(a, a) == closure(a)

    @pytest.mark.parametrize("seed", range(5))
    def test_join_weakens_meet_strengthens(self, seed):
        sets = random_sets(seed)
        for a, b in zip(sets, sets[1:]):
            j = join(a, b)
            m = meet(a, b)
            # join: only what both sides guarantee
            assert j <= closure(a) and j <= closure(b)
            # meet: everything either side knows
            assert closure(a) <= m and closure(b) <= m
            assert j <= m

    @pytest.mark.parametrize("seed", range(5))
    def test_monotone(self, seed):
        sets = random_sets(seed)
        for a, b, c in zip(sets, sets[1:], sets[2:]):
            smaller = a & b  # ⊑ a in the knowledge order
            assert join(smaller, c) <= join(a | b, c)
            assert meet(smaller, c) <= meet(a | b, c)


class TestDomainTransferMonotone:
    """Monotonicity of the framework's transfer functions on random
    states: dropping knowledge from the input environment can only drop
    (never add) knowledge in the output."""

    SRC = """
    void mono(int a[], int b[], int pos[], int out[], int n)
    {
        int i, x, count;
        x = n + 2;
        a[0] = 0;
        count = 0;
        for (i = 0; i < n; i++) {
            if (b[i] > 0) {
                pos[i] = count;
                count = count + 1;
            } else {
                pos[i] = -1;
            }
        }
        for (i = 0; i < n; i++) {
            out[pos[i] + x] = i;
        }
    }
    """

    @staticmethod
    def _knowledge(env) -> dict:
        """The comparable abstraction of a PropertyEnv: every known fact."""
        facts = {}
        for name, rng in env.scalars.items():
            facts[("scalar", name)] = str(rng)
        for key, val in env.points.items():
            facts[("point", key[0], str(key[1]))] = str(val)
        for arr, rec in env.records.items():
            facts[("record", arr)] = rec.describe()
        return facts

    @pytest.mark.parametrize("seed", range(8))
    def test_less_knowledge_in_less_knowledge_out(self, seed):
        from repro.analysis import PropertyEnv, analyze_function
        from repro.analysis.env import ArrayRecord
        from repro.ir import build_function
        from repro.symbolic.ranges import SymRange

        rng = random.Random(seed)
        rich = PropertyEnv()
        rich.set_scalar("n", SymRange.make(1, 64))
        rich.set_record(ArrayRecord("b", props=frozenset({Prop.MONO_INC}), source="t"))
        rich.set_record(ArrayRecord("a", props=frozenset({Prop.INJECTIVE}), source="t"))
        # drop a random subset of the seeded facts
        poor = rich.snapshot()
        if rng.random() < 0.5:
            poor.kill_scalar("n")
        for arr in ("a", "b"):
            if rng.random() < 0.5:
                poor.kill_array(arr)
        func = build_function(self.SRC)
        out_rich = analyze_function(func, rich)
        out_poor = analyze_function(func, poor)
        k_rich = self._knowledge(out_rich.final_env)
        k_poor = self._knowledge(out_poor.final_env)
        for key, val in k_poor.items():
            assert key in k_rich, f"fact {key} appeared from nowhere"
        # same per-loop: every env snapshot must shrink monotonically
        for label, env_poor in out_poor.env_before.items():
            kp = self._knowledge(env_poor)
            kr = self._knowledge(out_rich.env_before[label])
            assert set(kp) <= set(kr)


class TestMultiSectionLattice:
    """Lattice laws of the index-vector section algebra: per-dimension
    join/widen idempotence and monotonicity, plus the unknown-rank top."""

    @staticmethod
    def _sections(seed: int, count: int = 40):
        from repro.symbolic.expr import const, var
        from repro.symbolic.ranges import (
            MultiSection,
            SymRange,
            TOP_SECTION,
            UNKNOWN_RANGE,
            symrange,
        )

        rng = random.Random(seed)
        atoms = [const(0), const(1), const(5), var("n"), var("m")]

        def rand_range():
            k = rng.random()
            if k < 0.15:
                return UNKNOWN_RANGE
            lo, hi = rng.choice(atoms), rng.choice(atoms)
            if k < 0.4:
                return SymRange.point(lo)
            return symrange(lo, hi)

        out = [TOP_SECTION]
        for _ in range(count):
            rank = rng.randint(1, 3)
            out.append(MultiSection(tuple(rand_range() for _ in range(rank))))
        return out

    @pytest.mark.parametrize("seed", range(5))
    def test_join_and_widen_idempotent(self, seed):
        for s in self._sections(seed):
            assert s.join(s) == s
            assert s.widen(s) == s
            assert s.meet(s) == s

    @pytest.mark.parametrize("seed", range(5))
    def test_join_commutative_and_rank_safe(self, seed):
        secs = self._sections(seed)
        for a, b in zip(secs, secs[1:]):
            assert a.join(b) == b.join(a)
            if a.rank != b.rank or a.is_top or b.is_top:
                assert a.join(b).is_top

    @pytest.mark.parametrize("seed", range(5))
    def test_per_dimension_monotone(self, seed):
        # joining can only widen each dimension; meeting only narrows:
        # every dimension of a ⊔ b contains the matching dimension of a
        from repro.symbolic.compare import Prover, Tri
        from repro.symbolic.facts import FactEnv

        p = Prover(FactEnv())
        secs = [s for s in self._sections(seed) if not s.is_top]
        for a, b in zip(secs, secs[1:]):
            j = a.join(b)
            if j.is_top:
                continue
            for da, dj in zip(a.dims, j.dims):
                # hull: lo(j) <= lo(a) and hi(a) <= hi(j) whenever the
                # prover can compare at all (symbolic pairs may be
                # incomparable — those joins fall to ±∞ hulls)
                if da.has_finite_lo and dj.has_finite_lo:
                    assert p.gt(dj.lo, da.lo) is not Tri.TRUE
                if da.has_finite_hi and dj.has_finite_hi:
                    assert p.lt(dj.hi, da.hi) is not Tri.TRUE

    @pytest.mark.parametrize("seed", range(5))
    def test_widen_stabilizes(self, seed):
        # widening twice with the same newer value is a fixpoint
        secs = self._sections(seed)
        for a, b in zip(secs, secs[1:]):
            w = a.widen(b)
            assert w.widen(b).rank == w.rank
            if a.rank == b.rank and not a.is_top:
                assert w.widen(b) == w or w.is_top

    def test_meet_identity_and_point_queries(self):
        from repro.symbolic.expr import const
        from repro.symbolic.ranges import (
            MultiSection,
            SymRange,
            TOP_SECTION,
            symrange,
        )

        s = MultiSection.of(symrange(0, 9), SymRange.point(const(3)))
        assert TOP_SECTION.meet(s) == s
        assert s.meet(TOP_SECTION) == s
        assert not s.is_point
        assert MultiSection.of(SymRange.point(const(1)), SymRange.point(const(2))).is_point
        assert s.rank == 2 and s.lead == symrange(0, 9)
        assert str(s) == "[0 : 9] × [3]"
        assert str(MultiSection.of(symrange(0, 9))) == "[0 : 9]"
        assert s.contains_values((5, 3), {})
        assert not s.contains_values((5, 4), {})
