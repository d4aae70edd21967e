import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowlab import (
    BlockPlan,
    GeneratorFamily,
    GeneratorMap,
    IndexSet,
    JumpRule,
    MetricSpace,
    ParameterError,
    PreconditionError,
    PseudoOrbit,
    Word,
    asymptotic_certificate,
    build_disk_system,
    concatenate,
    make_corrupted_orbit,
    true_orbit,
)
from shadowlab import concat
from shadowlab.density import prefix_means
from shadowlab.pseudo_orbits import recompute_step_errors

from oracles import reference_defects, reference_distance, reference_step


def interval_identity():
    space = MetricSpace.box([0.0], [1.0])
    return GeneratorFamily(space, (GeneratorMap.identity(),)), Word.constant(1, m=1)


def zigzag_block(family, word, steps, err, start=0.0):
    """Identity-family block alternating start/start+err: every step error is err."""
    pts = [start + (err if j % 2 else 0.0) for j in range(steps + 1)]
    return PseudoOrbit.from_points(family, word, np.array(pts))


def derived_three_block_plan():
    """Block lengths 8, 64, 1024 with per-block mean errors just under 1, 1/2, 1/3."""
    family, word = interval_identity()
    blocks = tuple(zigzag_block(family, word, m, 0.999 / k)
                   for k, m in enumerate((8, 64, 1024), start=1))
    return BlockPlan(blocks, (1, 1, 1)), word


def test_single_true_orbit_block_passthrough():
    family, word = build_disk_system()
    block = true_orbit(family, word, (0.5, 0.2), 20)
    plan = BlockPlan((block,), (1,))
    xi = concatenate(plan, word)
    assert np.array_equal(xi.points, block.points)
    assert xi.meta["junction_indices"] == []
    assert np.all(xi.step_errors == 0.0)


def test_two_identical_blocks_single_junction():
    space = MetricSpace.unit_disk()
    family = GeneratorFamily(space, (GeneratorMap.permutation((1, 0)),))
    word = Word.constant(1, m=1)
    block = true_orbit(family, word, (0.8, 0.1), 10)
    plan = BlockPlan((block, block), (1, 1))
    xi = concatenate(plan, word)
    junction = 10
    expected = space.distance(reference_step(family, 1, block.points[-1].tolist()),
                              block.points[0])
    nonzero = np.flatnonzero(xi.step_errors > 1e-15)
    assert list(nonzero) == [junction]
    assert xi.step_errors[junction] == pytest.approx(expected)


def test_three_block_prefix_means_decrease():
    plan, word = derived_three_block_plan()
    xi = concatenate(plan, word)
    offsets = plan.offsets
    # Oracle: direct summation, no prefix-sum shortcut.
    means = [sum(float(v) for v in xi.step_errors[:Mn]) / Mn for Mn in offsets[1:]]
    assert means[0] > means[1] > means[2]
    assert means[0] == pytest.approx(8 * 0.999 / 9, abs=1e-12)
    assert means[1] == pytest.approx((8 * 0.999 + 64 * 0.4995) / 74, abs=1e-12)


def test_concatenate_rejects_wrong_shift():
    space = MetricSpace.box([0.0], [1.0])
    family = GeneratorFamily(space, (GeneratorMap.identity(), GeneratorMap.scale([0.5])))
    word = Word.periodic((1, 2), m=2)
    block1 = true_orbit(family, word, [0.8], 4)
    unshifted = true_orbit(family, word, [0.6], 4)  # built against the start of the word
    plan = BlockPlan((block1, unshifted), (1, 1))
    with pytest.raises(PreconditionError) as err:
        concatenate(plan, word)
    assert err.value.witness["block"] == 2


@pytest.mark.parametrize("block_word", [Word.periodic((1, 2), m=2).shifted(5),
                                        Word.periodic((2, 1), m=2)], ids=["shifted", "respelled"])
def test_concatenate_accepts_correct_shift(block_word):
    # Block 2's word is the word shifted by 5, or another spec with the same
    # symbols, which concatenate lays out from the shifted word.
    space = MetricSpace.box([0.0], [1.0])
    family = GeneratorFamily(space, (GeneratorMap.identity(), GeneratorMap.scale([0.5])))
    word = Word.periodic((1, 2), m=2)
    assert np.array_equal(block_word.symbols(9), word.shifted(5).symbols(9))
    block1 = true_orbit(family, word, [0.8], 4)
    block2 = true_orbit(family, block_word, [0.6], 4)
    xi = concatenate(BlockPlan((block1, block2), (1, 1)), word)
    assert len(xi.points) == 10
    interior = np.delete(xi.step_errors, 4)
    assert np.all(interior <= 1e-15)


def word_flipped_at(word, j: int, m: int = 2) -> Word:
    """The word with symbol j swapped for another of 1..m, and no other symbol changed."""
    head = word.symbols(j + 1).tolist()
    head[j] = head[j] % m + 1
    return Word("prefix", m, prefix=tuple(head), tail=word.shifted(j + 1))


@pytest.mark.parametrize("at", ["defect", "ordinary"])
def test_concatenate_rejects_a_block_whose_word_differs_at_one_step(at):
    # Block 2 follows the word shifted by its offset at every step but j, where
    # it follows the other map: on the path of its walk (an ordinary step), or
    # before a jump lands (a defect, whose error is then taken from the other
    # map's image).
    family, word = build_disk_system()
    offset, j = 21, 6
    wrong = word_flipped_at(word.shifted(offset), j)
    assert np.flatnonzero(wrong.symbols(30) != word.shifted(offset).symbols(30)).tolist() == [j]
    block1 = true_orbit(family, word, (0.5, 0.2), 20)

    def block2(w):
        if at == "ordinary":
            return true_orbit(family, w, (0.3, -0.6), 30)
        return make_corrupted_orbit(family, w, (0.3, -0.6), IndexSet.from_iterable([j], 30),
                                    JumpRule("fixed", point=(0.9, 0.0)), seed=0)

    concatenate(BlockPlan((block1, block2(word.shifted(offset))), (1, 30)), word)
    bad = block2(wrong)
    assert (bad.defects.tolist() == [j]) == (at == "defect")
    with pytest.raises(PreconditionError, match="block 2 is not a pseudo-orbit for the word "
                                                "shifted by 21") as err:
        concatenate(BlockPlan((block1, bad), (1, 30)), word)
    x = bad.points[j].tolist()
    want = reference_distance(family.space, reference_step(family, word.symbol_at(offset + j), x),
                              bad.points[j + 1].tolist())
    assert want != bad.step_errors[j]
    assert err.value.witness == {"block": 2, "offset": offset,
                                 "max_error_mismatch": abs(want - bad.step_errors[j])}


def test_a_concatenation_has_the_record_of_a_pseudo_orbit_built_on_its_points():
    # concatenate lays the word's symbols into the word's memo from its blocks,
    # which must give the word's own: its record equals, bit for bit, that of
    # an orbit built on the same points under a fresh copy of the word.
    family, word = affine_box_system(3)
    respelled = Word("prefix", word.m, prefix=tuple(word.shifted(21).symbols(40)),
                     tail=word.shifted(61))
    block1 = make_corrupted_orbit(family, word, (0.5, 0.5), IndexSet.from_iterable([7], 20),
                                  JumpRule("fixed", point=(3.0, 3.0)), 0)
    block2 = true_orbit(family, respelled, (2.0, 1.0), 40)
    xi = concatenate(BlockPlan((block1, block2), (20, 1)), word)
    built = PseudoOrbit(family, dataclasses.replace(word), xi.points)
    assert xi.defects.tolist() == [7, 20]
    assert xi.step_errors.tobytes() == built.step_errors.tobytes()
    assert xi.defects.tobytes() == built.defects.tobytes()


@pytest.mark.parametrize("case, draws", [("shifted", 1), ("respelled", 31),
                                         ("memo short of the horizon", 16),
                                         ("memo past the horizon", 0)])
def test_a_block_word_other_than_the_shifted_word_is_drawn_not_lent(monkeypatch, case, draws):
    # Block 2 (30 steps at offset 21) lends its memo only when its word is the
    # word shifted by 21 and the word's memo ends at 21. Every other symbol of
    # the 51 that the word's memo lacks is drawn once, and the word then holds
    # them all; it held none after a concatenation, which drew them again on
    # the next read.
    family, word = build_disk_system()[0], Word.iid([0.5, 0.5], seed=3)
    respelled = Word("prefix", 2, prefix=tuple(word.shifted(21).symbols(30)),
                     tail=word.shifted(51))
    block1 = true_orbit(family, word.shifted(0), (0.5, 0.2), 20)
    block2 = true_orbit(family, respelled if case == "respelled" else word.shifted(21),
                        (0.3, -0.6), 30)
    want, target = word.symbols(51), Word.iid([0.5, 0.5], seed=3)
    target.symbols({"memo short of the horizon": 5, "memo past the horizon": 60}.get(case, 0))
    counted, iid_draws = [], Word._iid_draws

    def count(self, start, n):
        counted.append(n)
        return iid_draws(self, start, n)

    monkeypatch.setattr(Word, "_iid_draws", count)
    xi = concatenate(BlockPlan((block1, block2), (1, 1)), target)
    assert np.array_equal(target.symbols(xi.horizon), want)
    assert sum(counted) == draws
    assert xi.defects.tolist() == [20]


def test_concatenate_rejects_poor_quality_block():
    family, word = interval_identity()
    bad = zigzag_block(family, word, 10, 1.0)  # prefix means equal 1, not < 1/1
    plan = BlockPlan((bad,), (1,))
    with pytest.raises(PreconditionError) as err:
        concatenate(plan, word)
    assert err.value.witness["block"] == 1


def test_block_plan_offsets_and_validation():
    plan, _ = derived_three_block_plan()
    assert plan.offsets == [0, 9, 74, 1099]
    for n in range(1, 4):
        assert plan.offsets[n] <= (n + 1) * plan.block_lengths[n - 1]


def test_block_plan_rejects_shrinking_blocks():
    family, word = interval_identity()
    big = zigzag_block(family, word, 100, 0.5)
    tiny = zigzag_block(family, word, 1, 0.25)
    with pytest.raises(ParameterError):
        BlockPlan((big, tiny), (1, 1))


@pytest.mark.parametrize("blocks, levels, message", [
    ((), (), "a block plan needs at least one block"),
    ((8,), (1, 1), "one quality level N_k per block is required"),
    ((0,), (1,), "block 1 needs at least 2 points"),
])
def test_block_plan_rejects_a_plan_without_blocks_levels_or_steps(blocks, levels, message):
    family, word = interval_identity()
    blocks = tuple(zigzag_block(family, word, m, 0.5) for m in blocks)
    with pytest.raises(ParameterError, match=f"^{message}$"):
        BlockPlan(blocks, levels)


def test_block_plan_rejects_blocks_of_different_families():
    # Both blocks are true orbits on the disk, one under a swap and x / 2, the
    # other under a swap and x / 4. concatenate steps every block with block
    # 1's family, so it blamed block 2's word instead.
    word = Word.periodic((1, 2), m=2)
    swap = GeneratorMap.permutation((1, 0))
    half, quarter = (GeneratorFamily(MetricSpace.unit_disk(), (swap, GeneratorMap.scale([f, f])))
                     for f in (0.5, 0.25))
    block1 = true_orbit(half, word, (0.8, 0.1), 20)
    block2 = true_orbit(quarter, word.shifted(21), (0.6, 0.3), 40)
    with pytest.raises(ParameterError, match="block 2 has another generator family"):
        BlockPlan((block1, block2), (1, 1))
    again = true_orbit(half, word.shifted(21), (0.6, 0.3), 40)
    assert concatenate(BlockPlan((block1, again), (1, 1)), word).horizon == 61


# ---------------------------------------------------------------------------
# asymptotic_certificate


def test_certificate_single_block_all_parts_zero():
    family, word = build_disk_system()
    block = true_orbit(family, word, (0.3, 0.3), 30)
    plan = BlockPlan((block,), (1,))
    xi = concatenate(plan, word)
    cert = asymptotic_certificate(xi, plan)
    assert cert
    for rec in cert.params["split_records"]:
        assert rec["interior"] == 0.0 and rec["junction"] == 0.0 and rec["tail"] == 0.0


def test_certificate_split_matches_direct_sums():
    plan, word = derived_three_block_plan()
    xi = concatenate(plan, word)
    cert = asymptotic_certificate(xi, plan)
    assert cert
    for rec in cert.params["split_records"]:
        direct = float(np.sum(xi.step_errors[:rec["j"]]))
        assert rec["interior"] + rec["junction"] + rec["tail"] == pytest.approx(direct, abs=1e-9)


def test_certificate_junction_count_is_block_count():
    plan, word = derived_three_block_plan()
    xi = concatenate(plan, word)
    cert = asymptotic_certificate(xi, plan)
    offsets = plan.offsets
    for rec in cert.params["split_records"]:
        n = rec["completed_blocks"]
        assert n == sum(1 for k in range(1, 4) if offsets[k] <= rec["j"])


def test_certificate_flags_growth_floor_violation():
    family, word = interval_identity()
    blocks = tuple(zigzag_block(family, word, m, 0.999 / k)
                   for k, m in enumerate((8, 16, 32), start=1))
    plan = BlockPlan(blocks, (1, 1, 1))
    xi = concatenate(plan, word)
    cert = asymptotic_certificate(xi, plan)
    floor = cert.params["growth_floor"]
    assert not all(rec["ok"] for rec in floor)
    failing = [rec["n"] for rec in cert.params["boundary_records"] if not rec["below_target"]]
    assert failing  # the certificate names the failing boundary targets


def test_certificate_targets_pass_for_well_grown_plan():
    family, word = interval_identity()
    blocks = tuple(zigzag_block(family, word, m, 0.4 / k)
                   for k, m in enumerate((4, 48, 512), start=1))
    plan = BlockPlan(blocks, (1, 1, 1))
    assert all(rec["ok"] for rec in plan.growth_floor_report())
    xi = concatenate(plan, word)
    cert = asymptotic_certificate(xi, plan)
    assert all(rec["below_target"] for rec in cert.params["boundary_records"])


def test_certificate_rejects_mismatched_sequence():
    plan, word = derived_three_block_plan()
    xi = concatenate(plan, word)
    tampered = PseudoOrbit(xi.family, xi.word, xi.points[:-1], xi.meta)
    with pytest.raises(ParameterError):
        asymptotic_certificate(tampered, plan)


def test_certificate_rejects_a_sequence_that_differs_inside_a_block():
    plan, word = derived_three_block_plan()
    xi = concatenate(plan, word)
    points = xi.points.copy()
    points[20] = 0.5
    with pytest.raises(ParameterError, match="^sequence does not match block 2 of the plan$"):
        asymptotic_certificate(PseudoOrbit(xi.family, xi.word, points, xi.meta), plan)


def test_a_failing_decomposition_names_its_worst_sampled_prefix(monkeypatch):
    # The split rounds apart from the direct sum by about 1e-14 here; with no
    # slack at all it fails, and the witness is the worst sampled prefix.
    plan, word = derived_three_block_plan()
    xi = concatenate(plan, word)
    monkeypatch.setattr(concat, "SPLIT_TOL", 0.0)
    cert = asymptotic_certificate(xi, plan)
    worst = max(cert.params["split_records"], key=lambda r: r["deviation"])
    assert not cert and worst["deviation"] > 0.0
    assert cert.witness == {"j": worst["j"], "deviation": worst["deviation"]}


def test_certificate_three_term_boundary_bound():
    # For a floor-satisfying plan, the mean at each boundary M_n splits into
    # last-block mass (< 1/n), earlier-block mass (<= M_{n-1}/M_n), and
    # junction mass, each bounded separately.
    family, word = interval_identity()
    blocks = tuple(zigzag_block(family, word, m, 0.4 / k)
                   for k, m in enumerate((4, 48, 512), start=1))
    plan = BlockPlan(blocks, (1, 1, 1))
    xi = concatenate(plan, word)
    offsets = plan.offsets
    e = xi.step_errors
    junctions = [offsets[k] - 1 for k in range(1, len(blocks))]
    for n in range(1, len(blocks) + 1):
        Mn = min(offsets[n], len(e))
        last_mass = float(np.sum(e[offsets[n - 1]:offsets[n] - 1]))
        earlier_mass = sum(float(np.sum(e[offsets[k - 1]:offsets[k] - 1]))
                           for k in range(1, n))
        junction_mass = sum(float(e[i]) for i in junctions[:n - 1])
        assert last_mass / Mn <= 1.0 / n
        assert earlier_mass / Mn <= offsets[n - 1] / Mn + 1e-12
        total = (last_mass + earlier_mass + junction_mass) / Mn
        direct = float(np.sum(e[:Mn])) / Mn
        assert total == pytest.approx(direct, abs=1e-9)
        assert direct <= 1.0 / n + offsets[n - 1] / Mn + junction_mass / Mn + 1e-12


# ---------------------------------------------------------------------------
# Differential: one step-error recompute against the per-block shifted-word check


def reference_concatenate(plan, word):
    """The per-block form: each block's step errors recomputed against the
    word shifted to its offset, then once more over the laid-out points."""
    offsets = plan.offsets
    family = plan.blocks[0].family
    for k, (block, N) in enumerate(zip(plan.blocks, plan.N_levels), start=1):
        shifted = word.shifted(offsets[k - 1])
        errors = recompute_step_errors(family, shifted, block.points)
        if not np.array_equal(errors, block.step_errors):
            raise PreconditionError(
                f"block {k} is not a pseudo-orbit for the word shifted by {offsets[k - 1]}",
                witness={"block": k, "offset": offsets[k - 1],
                         "max_error_mismatch": float(np.max(np.abs(errors - block.step_errors)))})
        means = prefix_means(errors)
        over = np.flatnonzero(means[N - 1:] >= 1.0 / k)
        if over.size:
            n = N + int(over[0])
            raise PreconditionError(
                f"block {k} has prefix mean {means[n - 1]:.6g} >= 1/{k} at length {n}",
                witness={"block": k, "n": n, "prefix_mean": float(means[n - 1])})

    points = np.concatenate([b.points for b in plan.blocks], axis=0)
    errors = recompute_step_errors(family, word, points)
    junction_indices = [offsets[k] - 1 for k in range(1, len(plan.blocks))]
    meta = {"kind": "concatenation", "offsets": offsets,
            "junction_indices": junction_indices,
            "junction_errors": [float(errors[i]) for i in junction_indices]}
    xi = PseudoOrbit(family, word, points, meta)
    assert xi.defects.tolist() == reference_defects(family, word, points)
    return xi


def affine_box_system(seed):
    """Two contracting affine maps of [0, 4]^2 under an iid word; the box is
    wide enough that uniform jumps break the 1/k check of block 1."""
    space = MetricSpace.box([0.0, 0.0], [4.0, 4.0])
    maps = (GeneratorMap.affine([[0.3, 0.2], [-0.1, 0.4]], [0.8, 1.2]),
            GeneratorMap.affine([[0.45, -0.05], [0.1, 0.35]], [1.0, 1.6]))
    return GeneratorFamily(space, maps), Word.iid([0.4, 0.6], seed=seed)


def jump_rule(kind: str, scale: float) -> JumpRule:
    """A rule of the kind; only an offset rule reads the scale."""
    return JumpRule(kind, scale=scale) if kind == "offset" else JumpRule(kind)


@st.composite
def plans(draw):
    """A system, a word and a plan of 1-3 blocks, each a true orbit of the word
    shifted to its offset, a true orbit of a wrongly shifted word (fails the
    mismatch check), a true orbit of another word with the same symbols (passes)
    or a corrupted orbit (often fails the 1/k check)."""
    if draw(st.booleans()):
        family, word = build_disk_system()
    else:
        family, word = affine_box_system(draw(st.integers(0, 2**32)))
    lengths = sorted(draw(st.lists(st.integers(3, 60), min_size=1, max_size=3)))
    blocks, levels, offset = [], [], 0
    for m in lengths:
        start = family.space.sample(np.random.default_rng(draw(st.integers(0, 2**32))))
        kind = draw(st.sampled_from(["true", "wrong-shift", "respelled", "corrupted"]))
        if kind == "true":
            block = true_orbit(family, word.shifted(offset), start, m)
        elif kind == "respelled":
            respelled = Word("prefix", word.m, prefix=tuple(word.shifted(offset).symbols(m)),
                             tail=word.shifted(offset + m))
            block = true_orbit(family, respelled, start, m)
        elif kind == "wrong-shift":
            block = true_orbit(family, word.shifted(offset + draw(st.integers(1, 3))), start, m)
        else:
            mask = draw(st.one_of(st.just([True] * m),
                                  st.lists(st.booleans(), min_size=m, max_size=m)))
            block = make_corrupted_orbit(
                family, word.shifted(offset), start, IndexSet.from_mask(np.array(mask)),
                jump_rule(draw(st.sampled_from(["uniform", "offset"])),
                          draw(st.floats(0.001, 2.0))),
                draw(st.integers(0, 2**32)))
        blocks.append(block)
        levels.append(draw(st.integers(1, m)))
        offset += m + 1
    return BlockPlan(tuple(blocks), tuple(levels)), word


def concat_outcome(fn, plan, word):
    try:
        xi = fn(plan, word)
    except PreconditionError as exc:
        return type(exc), exc.witness
    return xi.points.tobytes(), xi.step_errors.tobytes(), xi.defects.tobytes(), xi.meta


def assert_outcomes_agree(plan, word):
    """Orbit bytes agree exactly, and so does a rejection: its exception type
    and every witness entry, floats bit for bit. A step recomputes to the same
    bits whichever steps share its symbol's group, so a block's step errors
    are the same within the laid-out sequence and on their own."""
    got = concat_outcome(concatenate, plan, word)
    want = concat_outcome(reference_concatenate, plan, word)
    assert got == want
    if want[0] is PreconditionError:
        assert {k: float(v).hex() for k, v in got[1].items()} == \
            {k: float(v).hex() for k, v in want[1].items()}


@settings(max_examples=200, deadline=None)
@given(plans())
def test_concatenate_matches_per_block_shifted_check(plan_and_word):
    assert_outcomes_agree(*plan_and_word)


def test_mismatch_witness_agrees_bit_for_bit():
    """Block 1 fails the mismatch check. A symbol that occurs once in it is a
    one-row group there and part of a larger group in the laid-out sequence;
    the two witnesses are the same float, bit for bit."""
    family, word = affine_box_system(1)
    wrong = true_orbit(family, word.shifted(1), (3.5, 0.5), 3)
    second = true_orbit(family, word.shifted(4), (2.0, 2.0), 5)
    plan = BlockPlan((wrong, second), (1, 1))
    got = concat_outcome(concatenate, plan, word)[1]["max_error_mismatch"]
    want = concat_outcome(reference_concatenate, plan, word)[1]["max_error_mismatch"]
    assert got.hex() == want.hex()
    assert_outcomes_agree(plan, word)


def test_differential_plans_reach_every_outcome():
    """The plans above pass, fail the mismatch check and fail the 1/k check."""
    family, word = affine_box_system(5)
    starts = ((0.5, 0.5), (0.2, 0.9), (0.7, 0.1))
    good = [true_orbit(family, word.shifted(o), z, 8) for o, z in zip((0, 9), starts)]
    wrong = true_orbit(family, word.shifted(10), starts[2], 8)
    corrupted = make_corrupted_orbit(family, word.shifted(9), starts[2],
                                     IndexSet.from_iterable(range(8), 8),
                                     JumpRule("offset", scale=1.0), 0)
    for second, witness_key in ((good[1], None), (wrong, "max_error_mismatch"),
                                (corrupted, "prefix_mean")):
        outcome = concat_outcome(concatenate, BlockPlan((good[0], second), (1, 1)), word)
        assert_outcomes_agree(BlockPlan((good[0], second), (1, 1)), word)
        if witness_key is None:
            assert outcome[-1]["kind"] == "concatenation"
        else:
            assert outcome[0] is PreconditionError and witness_key in outcome[1]
