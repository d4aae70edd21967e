"""Orbit files: the v2 round trip, v1 files read and written again as v2, and
tampered or misspelled files, which exit 2 naming the file.

A v2 file stores the start and, at each defect j, the point x_{j+1} that the
walk does not reproduce bit for bit; loading walks once from the start and
lands each defect's point as stored. Every orbit that round-trips through
v1 must round-trip through v2, bit for bit: points, step errors and meta.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from shadowlab import (
    BlockPlan,
    GeneratorFamily,
    GeneratorMap,
    IndexSet,
    JumpRule,
    MetricSpace,
    ParameterError,
    PseudoOrbit,
    Word,
    build_disk_system,
    concatenate,
    make_corrupted_orbit,
    repair,
    true_orbit,
)
from shadowlab.cli import main
from shadowlab.pseudo_orbits import recompute_step_errors
from shadowlab.serialize import (
    CONFIG_SCHEMA,
    ORBIT_SCHEMA_V2,
    json_default,
    load_orbit,
    orbit_from_dict,
    orbit_to_dict,
    save_orbit,
    step_error_checksum,
)

from oracles import orbit_v1_dict, reference_defects, save_orbit_v1
from test_orbit_walk import BLOCK_SIZES, walk_blocks


def through_json(data: dict) -> dict:
    return json.loads(json.dumps(data, default=json_default))


def assert_same_orbit(got: PseudoOrbit, want: PseudoOrbit) -> None:
    """Equal bit for bit: points (signed zeros included), step errors, meta and specs."""
    assert got.points.shape == want.points.shape
    assert np.array_equal(got.points.view(np.uint64), want.points.view(np.uint64))
    assert np.array_equal(got.step_errors.view(np.uint64), want.step_errors.view(np.uint64))
    assert got.meta == through_json(want.meta)
    assert got.family.spec() == want.family.spec()
    assert got.word.spec() == want.word.spec()


# ---------------------------------------------------------------------------
# Strategies: space kinds x map kinds x word kinds x orbit kinds

# Points each space holds that a walk rarely lands on: signed zeros, the
# boundary, and circle coordinates outside [0, 1), which the walk wraps.
SPECIAL = {
    "disk": [(0.0, -0.0), (-0.0, 0.0), (1.0, 0.0), (-0.0, -1.0), (0.6, 0.8), (5e-324, 0.0)],
    "box": [-0.0, 0.0, 1.0, 5e-324, 0.5],
    "circle": [(1.35,), (-0.0,), (0.0,), (0.9999999999999999,), (1.0,), (-0.25,), (7.0,),
               (5e-324,)],
}


def special_points(kind: str, d: int):
    if kind == "box":
        return st.lists(st.sampled_from(SPECIAL["box"]), min_size=d, max_size=d).map(tuple)
    return st.sampled_from(SPECIAL[kind])


@st.composite
def maps_on(draw, kind: str, d: int, escaping: bool):
    """A map of each kind. On the disk and the box, one that maps the space into
    itself unless escaping; on the circle, any map with integer slopes."""
    choice = draw(st.sampled_from(["identity", "permutation", "affine", "scale"]))
    if choice == "identity":
        return GeneratorMap.identity()
    if choice == "permutation":
        return GeneratorMap.permutation(draw(st.permutations(range(d))))
    if kind == "circle":
        slope = float(draw(st.integers(-3, 3)))
        if choice == "scale":
            return GeneratorMap.scale([slope])
        return GeneratorMap.affine([[slope]], [draw(st.floats(-2.0, 2.0))])
    # Disk: |A| + |b| <= 0.6 + 0.4. Box [0, 1]^d: row sums of A, plus b, <= 1.
    wide = st.floats(-1.5, 1.5)
    if kind == "disk":
        factor, entry, shift = st.floats(-1.0, 1.0), st.floats(-0.3, 0.3), st.floats(-0.28, 0.28)
    else:
        factor, entry, shift = st.floats(0.0, 1.0), st.floats(0.0, 0.5 / d), st.floats(0.0, 0.5)
    if escaping:
        factor = entry = shift = wide
    if choice == "scale":
        return GeneratorMap.scale([draw(factor) for _ in range(d)])
    return GeneratorMap.affine([[draw(entry) for _ in range(d)] for _ in range(d)],
                               [draw(shift) for _ in range(d)])


@st.composite
def families(draw, escaping: bool = False):
    kind = draw(st.sampled_from(["disk", "box", "circle"]))
    d = {"disk": 2, "circle": 1}.get(kind) or draw(st.integers(1, 3))
    space = {"disk": MetricSpace.unit_disk(), "circle": MetricSpace.circle()}.get(kind)
    space = space or MetricSpace.box([0.0] * d, [1.0] * d)
    maps = tuple(draw(maps_on(kind, d, escaping)) for _ in range(draw(st.integers(1, 3))))
    return kind, GeneratorFamily(space, maps)


@st.composite
def words(draw, m: int, tail: bool = True):
    kinds = ["constant", "periodic", "iid"] + (["prefix"] if tail else [])
    kind = draw(st.sampled_from(kinds))
    symbols = st.integers(1, m)
    if kind == "constant":
        word = Word.constant(draw(symbols), m)
    elif kind == "periodic":
        word = Word.periodic(draw(st.lists(symbols, min_size=1, max_size=4)), m)
    elif kind == "iid":
        weights = draw(st.lists(st.floats(0.0, 1.0), min_size=m - 1, max_size=m - 1))
        weights.append(draw(st.floats(0.1, 1.0)))
        word = Word.iid(weights, seed=draw(st.integers(0, 2**64 - 1)))
    else:
        word = Word("prefix", m, prefix=draw(st.lists(symbols, max_size=4)),
                    tail=draw(words(m, tail=False)))
    return word.shifted(draw(st.integers(0, 5)))


def start_point(draw, kind: str, space: MetricSpace, rng) -> tuple:
    if draw(st.booleans()):
        return draw(special_points(kind, space.dimension))
    return tuple(space.sample(rng).tolist())


def walked_with_defects(draw, kind, family, word, H, rng) -> np.ndarray:
    """A walk that lands a drawn point at drawn steps, and at every step whose
    image leaves the space: a special point, a seeded one, the image with the
    sign of a zero flipped, or the image moved by 1 ulp or by 5e-324 (a move
    whose distance underflows to 0)."""
    space, steps = family.space, family.steps
    symbols = word.symbols(H).tolist()
    at = set(draw(st.lists(st.integers(0, max(H - 1, 0)), max_size=8)))
    p = start_point(draw, kind, space, rng)
    points = [p]
    for j, s in enumerate(symbols):
        image = steps[s](p)
        inside = all(map(math.isfinite, image)) and bool(space.contains(image))
        if j in at or not inside:
            how = draw(st.sampled_from(["special", "seeded", "flip", "ulp", "tiny"]))
            if how == "flip" and inside:
                image = tuple(-x if x == 0 else x for x in image)
            elif how == "ulp" and inside:
                image = (math.nextafter(image[0], math.inf), *image[1:])
            elif how == "tiny" and inside:
                image = (image[0] + 5e-324, *image[1:])
            elif how == "special":
                image = draw(special_points(kind, space.dimension))
            else:
                image = tuple(space.sample(rng).tolist())
            if not space.contains(image):
                image = tuple(space.sample(rng).tolist())
        points.append(image)
        p = image
    return np.array(points, dtype=np.float64).reshape(-1, space.dimension)


@st.composite
def orbits(draw):
    """A true, corrupted, repaired, concatenated or hand-landed orbit."""
    shape = draw(st.sampled_from(["true", "corrupted", "repaired", "concatenated", "landed"]))
    kind, family = draw(families(escaping=shape == "landed" and draw(st.booleans())))
    word = draw(words(family.m))
    space, H = family.space, draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "landed":
        return PseudoOrbit.from_points(family, word, walked_with_defects(
            draw, kind, family, word, H, rng), {"kind": "landed", "H": H})
    if shape == "true":
        return true_orbit(family, word, start_point(draw, kind, space, rng), H)
    if shape == "concatenated":
        m = draw(st.integers(3, 12))
        blocks, offset = [], 0
        for _ in range(draw(st.integers(1, 3))):
            blocks.append(true_orbit(family, word.shifted(offset),
                                     start_point(draw, kind, space, rng), m))
            offset += m + 1
        return concatenate(BlockPlan(tuple(blocks), (1,) * len(blocks)), word)
    # Repair's block length at delta >= 0.5 is at most 33 on these spaces.
    H = max(H, 40 if shape == "repaired" else 1)
    rules = [
        JumpRule("uniform"),
        JumpRule("fixed", point=tuple(draw(st.floats(-2.0, 2.0))
                                      for _ in range(space.dimension))),
        JumpRule("offset", scale=draw(st.floats(0.01, 3.0)),
                 power=draw(st.sampled_from([0.0, 1.0, 2, 1.5])))]
    steps = IndexSet.from_iterable(draw(st.lists(st.integers(0, H - 1), max_size=10)), H)
    start = start_point(draw, kind, space, rng)
    if len(steps):
        # A fixed target equal to the first jump's image lands no defect there;
        # with the sign of a zero flipped, a defect whose step error is 0.
        image = true_orbit(family, word, start, steps.indices[0] + 1).points[-1]
        if draw(st.booleans()):
            image = np.where(image == 0.0, -image, image)
        rules.append(JumpRule("fixed", point=tuple(image.tolist())))
    xi = make_corrupted_orbit(family, word, start, steps, draw(st.sampled_from(rules)),
                              seed=draw(st.integers(0, 1000)))
    if shape == "repaired":
        xi = repair(xi, draw(st.floats(0.5, 1.0)), density_tol=1.0).y
    return xi


@settings(max_examples=300, deadline=None)
@given(orbits())
def test_every_orbit_round_trips_through_v2_bit_for_bit(xi):
    # Each producer's step errors, walked or recomputed, are the recomputation's.
    assert xi.step_errors.tobytes() == recompute_step_errors(xi.family, xi.word,
                                                             xi.points).tobytes()
    data = through_json(orbit_to_dict(xi))
    assert data["schema"] == ORBIT_SCHEMA_V2
    # Every step with a nonzero step error is a defect; others may be too.
    steps = [j for j, _ in data["defects"]]
    assert set(np.flatnonzero(xi.step_errors).tolist()) <= set(steps)
    assert steps == sorted(set(steps))
    loaded = orbit_from_dict(data)
    assert_same_orbit(loaded, xi)
    # A v2 load computes step errors at the defects only, the rest are 0.0.
    recomputed = recompute_step_errors(loaded.family, loaded.word, loaded.points)
    assert loaded.step_errors.tobytes() == recomputed.tobytes()
    assert_same_orbit(orbit_from_dict(through_json(orbit_v1_dict(xi))), xi)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_every_producer_records_the_bitwise_defects(data):
    """The defects of every producer (true, corrupted, repaired, concatenated
    and landed orbits, the last through from_points) and of the v1 and v2
    loads of each are the steps whose next point's bytes differ from the
    reference image's, with walks run in blocks so short that block edges
    fall on landings."""
    with walk_blocks(data.draw(BLOCK_SIZES)):
        xi = data.draw(orbits())
        loads = [orbit_from_dict(through_json(to_dict(xi)))
                 for to_dict in (orbit_to_dict, orbit_v1_dict)]
    want = reference_defects(xi.family, xi.word, xi.points)
    for got in (xi, *loads):
        assert got.defects.tolist() == want
    event(f"{xi.meta.get('kind')}, {'defects' if want else 'no defect'}")


@pytest.mark.parametrize("block", [1, 2, 3, 7, 64])
def test_a_jump_onto_its_image_is_no_defect_and_a_signed_zero_is_one(block):
    # Under (x, y) -> (0, y/2) from (0.5, 0.5), x_2 = (0.0, 0.125) is the image
    # of x_1; -0.0 differs from it in bits alone, and 2.0 is clamped to 1.0.
    family = GeneratorFamily(MetricSpace.box([0.0, 0.0], [1.0, 1.0]),
                             (GeneratorMap.scale([0.0, 0.5]),))
    word, jumps = Word.constant(1, 1), IndexSet.from_iterable([1, 4], 9)
    with walk_blocks(block):
        image, signed, far = (make_corrupted_orbit(family, word, (0.5, 0.5), jumps,
                                                   JumpRule("fixed", point=(x, 0.125)), seed=0)
                              for x in (0.0, -0.0, 2.0))
    assert image.defects.tolist() == [4]
    assert signed.defects.tolist() == [1, 4] and signed.step_errors[1] == 0.0
    assert far.defects.tolist() == [1, 4] and far.meta["clamped_indices"] == [1, 4]
    for xi in (image, signed, far):
        assert xi.defects.tolist() == reference_defects(family, word, xi.points)


@pytest.mark.parametrize("family, points, defects", [
    # x -> x/2 + 0.55 sends 1.0 out of [0, 1]: the walk may land only at a defect.
    (GeneratorFamily(MetricSpace.box([0.0], [1.0]), (GeneratorMap.affine([[0.5]], [0.55]),)),
     [[1.0], [0.3], [0.7]], [[0, [0.3]], [1, [0.7]]]),
    # Circle points outside [0, 1) and signed zeros are landed as stored.
    (GeneratorFamily(MetricSpace.circle(), (GeneratorMap.scale([2.0]),)),
     [[0.3], [1.35], [-0.0], [0.0], [0.7]], [[0, [1.35]], [1, [-0.0]], [3, [0.7]]]),
])
def test_defects_land_as_stored(tmp_path, family, points, defects):
    xi = PseudoOrbit.from_points(family, Word.constant(1, 1), points)
    save_orbit(xi, tmp_path / "orbit.json")
    assert json.loads((tmp_path / "orbit.json").read_text())["defects"] == defects
    assert_same_orbit(load_orbit(tmp_path / "orbit.json"), xi)


def sample_orbits():
    family, word = build_disk_system()
    squares = IndexSet.from_iterable([k * k for k in range(11)], 120)
    circle = GeneratorFamily(MetricSpace.circle(),
                             (GeneratorMap.scale([2.0]), GeneratorMap.scale([3.0])))
    return {
        "disk-uniform": make_corrupted_orbit(family, word, (0.4, 0.2), squares,
                                             JumpRule("uniform"), seed=3),
        "disk-clamped": make_corrupted_orbit(family, word, (1.0, 0.0), squares,
                                             JumpRule("offset", scale=3.0, power=0.0), seed=5),
        "circle-iid": make_corrupted_orbit(circle, Word.iid([0.4, 0.6], seed=11), [0.123],
                                           squares, JumpRule("uniform"), seed=2),
    }


@pytest.mark.parametrize("name", sorted(sample_orbits()))
def test_a_v1_file_saved_as_v2_keeps_points_step_errors_and_meta(tmp_path, name):
    xi = sample_orbits()[name]
    save_orbit_v1(xi, tmp_path / "v1.json")
    from_v1 = load_orbit(tmp_path / "v1.json")
    assert_same_orbit(from_v1, xi)
    save_orbit(from_v1, tmp_path / "v2.json")
    save_orbit(xi, tmp_path / "direct.json")
    assert (tmp_path / "v2.json").read_bytes() == (tmp_path / "direct.json").read_bytes()
    assert_same_orbit(load_orbit(tmp_path / "v2.json"), xi)


# ---------------------------------------------------------------------------
# Tampered and misspelled files exit 2 naming the file


def classify(tmp_path, capsys, orbit: dict) -> tuple[int, str, str]:
    """Run classify on the orbit written as a file; its exit code, stderr and path."""
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(orbit))
    family, word = build_disk_system()
    config = {"schema": CONFIG_SCHEMA, "horizon": 120, "out": str(tmp_path / "out"),
              "system": {**family.spec(), "word": word.spec(), "start": [0.4, 0.2]},
              "classify": {"orbit": str(path)}}
    (tmp_path / "config.json").write_text(json.dumps(config))
    capsys.readouterr()
    code = main(["classify", "--config", str(tmp_path / "config.json")])
    return code, capsys.readouterr().err, str(path)


def tamper(data: dict, how: str) -> dict:
    data = json.loads(json.dumps(data))
    defects, H = data.get("defects"), data.get("horizon")
    if how == "defect-moved":
        defects[-1][0] -= 1
    elif how == "defect-dropped":
        del defects[3]
    elif how == "defect-point-changed":
        defects[3][1][0] /= 2
    elif how == "start-changed":
        data["start"][1] /= 2
    elif how == "points-digest-changed":
        data["points_sha256"] = "0" * 64
    elif how == "step-error-checksum-changed":
        data["step_error_checksum"] = "0" * 64
    elif how == "index-at-horizon":
        defects[-1][0] = H
    elif how == "index-negative":
        defects[0][0] = -1
    elif how == "index-not-an-integer":
        defects[2][0] = 4.5
    elif how == "duplicated":
        defects.insert(2, defects[2])
    elif how == "unsorted":
        defects[2], defects[3] = defects[3], defects[2]
    elif how == "defect-point-3d":
        defects[2][1].append(0.0)
    elif how == "defect-point-not-finite":
        defects[2][1][0] = math.inf
    elif how == "defect-not-a-pair":
        defects[2] = defects[2][0]
    elif how == "start-3d":
        data["start"].append(0.0)
    elif how in ("horizon-less", "horizon-more", "horizon-negative"):
        data["horizon"] = {"horizon-less": H - 1, "horizon-more": H + 1,
                           "horizon-negative": -1}[how]
    elif how == "unknown-root-key":
        data["wrod"] = 1
    elif how == "unknown-system-key":
        data["system"]["mapz"] = []
    return data


# how -> what the error names after "orbit file <path>: "
TAMPERED = {
    "defect-moved": "points digest mismatch",
    "defect-dropped": "points digest mismatch",
    "defect-point-changed": "points digest mismatch",
    "start-changed": "points digest mismatch",
    "points-digest-changed": "points digest mismatch",
    "step-error-checksum-changed": "step-error checksum mismatch",
    "horizon-less": "points digest mismatch",
    "horizon-more": "points digest mismatch",
    "horizon-negative": "field 'horizon'",
    "index-at-horizon": "field 'defects[10]'",
    "index-negative": "field 'defects[0]'",
    "index-not-an-integer": "field 'defects[2]'",
    "duplicated": "field 'defects[3]'",
    "unsorted": "field 'defects[3]'",
    "defect-point-3d": "field 'defects[2]'",
    "defect-point-not-finite": "field 'defects[2]'",
    "defect-not-a-pair": "field 'defects[2]'",
    "start-3d": "field 'start'",
    "unknown-root-key": "field 'wrod': unknown key 'wrod'",
    "unknown-system-key": "field 'system.mapz': unknown key 'mapz'",
}


@pytest.mark.parametrize("how", sorted(TAMPERED))
def test_a_tampered_v2_file_exits_2_naming_it(tmp_path, capsys, how):
    data = orbit_to_dict(sample_orbits()["disk-uniform"])
    assert [j for j, _ in data["defects"]] == [k * k for k in range(11)]
    code, err, path = classify(tmp_path, capsys, tamper(data, how))
    assert code == 2
    assert f"orbit file {path}: {TAMPERED[how]}" in err


@pytest.mark.parametrize("how", ["unknown-root-key", "unknown-system-key"])
def test_an_unknown_key_in_a_v1_file_exits_2_naming_it(tmp_path, capsys, how):
    data = tamper(orbit_v1_dict(sample_orbits()["disk-uniform"]), how)
    code, err, path = classify(tmp_path, capsys, data)
    assert code == 2
    assert f"orbit file {path}: {TAMPERED[how]}" in err


def v1_with_points(points, checksum: str | None = None) -> dict:
    """The disk-uniform orbit's v1 data with its points replaced, and its
    step-error checksum the column reference's, or the one given."""
    xi = sample_orbits()["disk-uniform"]
    errors = recompute_step_errors(xi.family, xi.word, np.asarray(points, dtype=np.float64))
    return {**orbit_v1_dict(xi), "points": points,
            "step_error_checksum": checksum or step_error_checksum(errors)}


@pytest.mark.parametrize("outside", [0, 5, 120])
@pytest.mark.parametrize("checksum", ["right", "wrong"])
def test_a_v1_point_outside_the_space_exits_2_naming_it(tmp_path, capsys, outside, checksum):
    # Membership is checked before the walk: a first point outside is named as
    # a point, not as the walk's start, and so is a point outside in a file
    # whose checksum is wrong too (that file named the checksum).
    points = sample_orbits()["disk-uniform"].points.tolist()
    points[outside] = [1.5, 0.25]
    data = v1_with_points(points, None if checksum == "right" else "0" * 64)
    code, err, path = classify(tmp_path, capsys, data)
    assert code == 2
    assert f"orbit file {path}: point {outside} is outside the unit-disk-2d space" in err


@pytest.mark.parametrize("points, message", [
    # A flat list ended in an IndexError traceback.
    ([0.1, 0.2], "points must be an (H+1, dim) array matching the space"),
    ([[0.1], [0.2]], "point has dimension 1, space has dimension 2"),
    ([], "point has dimension 0, space has dimension 2"),
    ([[[0.1, 0.2]]], "expected a point or an (n, d) array of rows, got shape (1, 1, 2)"),
])
def test_v1_points_of_the_wrong_shape_exit_2_naming_the_file(tmp_path, capsys, points,
                                                            message):
    code, err, path = classify(tmp_path, capsys, {**v1_with_points([[0.1, 0.2]]),
                                                  "points": points})
    assert code == 2
    assert f"orbit file {path}: {message}" in err


@pytest.mark.parametrize("section, key", [("system", "maps"), (None, "defects")])
def test_a_missing_key_of_an_orbit_file_names_its_path(tmp_path, capsys, section, key):
    # Each exited 2 naming the key alone: "missing key 'maps'".
    data = orbit_to_dict(sample_orbits()["disk-uniform"])
    del (data[section] if section else data)[key]
    code, err, path = classify(tmp_path, capsys, data)
    field = f"{section}.{key}" if section else key
    assert code == 2
    assert f"orbit file {path}: field {field!r}: required" in err
    with pytest.raises(ParameterError) as caught:
        orbit_from_dict(data)
    assert caught.value.path == tuple(field.split("."))


@pytest.mark.parametrize("meta", [[1], 5, "x", None])
def test_an_orbit_file_whose_meta_is_no_object_exits_2_naming_it(tmp_path, capsys, meta):
    # It loaded, and repair ended in a TypeError traceback merging the meta.
    data = {**orbit_to_dict(sample_orbits()["disk-uniform"]), "meta": meta}
    code, err, path = classify(tmp_path, capsys, data)
    assert code == 2
    assert f"orbit file {path}: field 'meta': must be an object" in err


# ---------------------------------------------------------------------------
# One decode path: each load and each concatenation builds one PseudoOrbit


def two_block_plan() -> tuple[BlockPlan, Word]:
    """Two swap-map true orbits on the disk, laid out under a constant word."""
    family = GeneratorFamily(MetricSpace.unit_disk(), (GeneratorMap.permutation((1, 0)),))
    word = Word.constant(1, m=1)
    block = true_orbit(family, word, (0.8, 0.1), 10)
    return BlockPlan((block, block), (1, 1)), word


@pytest.mark.parametrize("build", ["v1 load", "v2 load", "concatenate"])
def test_each_load_and_concatenation_builds_one_pseudo_orbit(tmp_path, monkeypatch, build):
    # A v1 load and a concatenation each built two: the walk's orbit and a
    # copy with the meta.
    xi, (plan, word) = sample_orbits()["disk-uniform"], two_block_plan()
    save_orbit_v1(xi, tmp_path / "v1 load.json")
    save_orbit(xi, tmp_path / "v2 load.json")
    built, check = [], PseudoOrbit.__post_init__

    def counted(self, symbols):
        built.append(self)
        check(self, symbols)

    monkeypatch.setattr(PseudoOrbit, "__post_init__", counted)
    got = (concatenate(plan, word) if build == "concatenate"
           else load_orbit(tmp_path / f"{build}.json"))
    assert len(built) == 1 and built[0] is got
    if build != "concatenate":
        assert_same_orbit(got, xi)


@pytest.mark.parametrize("build", ["v1 load", "concatenate"])
def test_a_v1_load_and_a_concatenation_check_each_point_once(tmp_path, monkeypatch, build):
    # A v1 load checked every point before its walk and again in the
    # constructor, and its start once more when the walk began.
    xi, (plan, word) = sample_orbits()["disk-uniform"], two_block_plan()
    save_orbit_v1(xi, tmp_path / "v1.json")
    checked, inside = [], MetricSpace._inside

    def counted(self, c):
        checked.append(len(c[0]))
        return inside(self, c)

    monkeypatch.setattr(MetricSpace, "_inside", counted)
    got = concatenate(plan, word) if build == "concatenate" else load_orbit(tmp_path / "v1.json")
    assert checked == [len(got.points)]
