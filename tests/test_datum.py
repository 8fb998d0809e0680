"""Datum construction, validation, and round-trip serialization.

Claims:
    - constructors produce data that pass validation
    - validation reports (never raises) rank, shape, sign, and non-finite
      exponent problems, each at its location
    - the named families have the documented shapes and exponents
    - save/load is a field-exact round trip; malformed files fail with
      a parse error naming the field, a partition or map shape that is
      not a list of whole numbers (2 and 2.0 are; true, "2" and 2.5 are
      not) included, and so are an exponent or map entry that is not a
      number (2 and 2.5 are; true and "2" are not) and a negative map
      shape; a zero-row map loads and fails validation as EMPTY_IMAGE
"""

import json
import math

import numpy as np
import pytest

import blepi
from blepi.datum import Datum, DatumParseError, Partition
from conftest import random_datum


class TestPartition:
    def test_totals(self):
        p = Partition((2, 1))
        assert p.k == 2 and p.n == 3
        assert p.offsets() == [(0, 2), (2, 3)]

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            Partition(())
        with pytest.raises(ValueError):
            Partition((2, 0))


class TestValidate:
    def test_epi_constructor_output_is_valid(self):
        report = blepi.validate(blepi.make_epi_datum(0.5, 1))
        assert report.ok
        assert report.issues == ()

    def test_zero_row_is_flagged_as_surjectivity(self):
        base = blepi.make_epi_datum(0.5, 1)
        bad = Datum(
            partition=base.partition,
            maps=(np.vstack([base.maps[0], np.zeros((1, 2))]),),
            c=base.c,
            d=base.d,
        )
        report = blepi.validate(bad)
        assert not report.ok
        assert any(i.code == "SURJECTIVITY" and i.location == "maps[0]" for i in report.issues)

    def test_column_count_mismatch(self):
        bad = Datum(
            partition=Partition((2, 2)),
            maps=(np.eye(3),),
            c=np.array([1.0]),
            d=np.array([1.0, 1.0]),
        )
        report = blepi.validate(bad)
        assert any(i.code == "DIMENSION_MISMATCH" for i in report.issues)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["c", "d"])
    def test_nonfinite_exponent_is_flagged(self, field, bad):
        # NaN and +inf exponents used to pass validation: check called a NaN
        # datum finite, and solve exited 7 from inside LAPACK
        base = blepi.make_epi_datum(0.5, 1)
        exponents = {"c": base.c.copy(), "d": base.d.copy()}
        exponents[field][0] = bad
        report = blepi.validate(Datum(partition=base.partition, maps=base.maps, **exponents))
        assert [(i.code, i.location) for i in report.issues] == [("NONFINITE_ENTRY", f"{field}[0]")]

    def test_idempotent(self):
        d = blepi.make_coupled_sums_datum(1.0, 1.0, 0.5, 0.5)
        assert blepi.validate(d) == blepi.validate(d)

    def test_all_constructors_validate(self, rng):
        data = [
            blepi.make_epi_datum(0.3, 2),
            blepi.make_zamir_feder_datum(np.eye(3)),
            blepi.make_coupled_sums_datum(1.0, 1.0, 0.0, 0.0),  # infeasible but valid
            blepi.make_coupled_sums_datum(1.25, 0.5, 0.5, 0.5),
        ]
        for d in data:
            assert blepi.validate(d).ok


class TestEpiConstructor:
    def test_half_lambda_dim_one(self):
        d = blepi.make_epi_datum(0.5, 1)
        assert d.partition.blocks == (1, 1)
        np.testing.assert_allclose(d.maps[0], [[0.7071067811865476, 0.7071067811865476]])
        np.testing.assert_allclose(d.d, [0.5, 0.5])
        np.testing.assert_allclose(d.c, [1.0])

    def test_quarter_lambda_dim_two(self):
        d = blepi.make_epi_datum(0.25, 2)
        assert d.maps[0].shape == (2, 4)
        np.testing.assert_allclose(d.maps[0][:, :2], 0.5 * np.eye(2))
        np.testing.assert_allclose(d.maps[0][:, 2:], math.sqrt(0.75) * np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("lam", [0.0, 1.0, -0.2, 1.7])
    def test_open_interval(self, lam):
        with pytest.raises(ValueError):
            blepi.make_epi_datum(lam, 1)


class TestZamirFederConstructor:
    def test_unit_row(self):
        d = blepi.make_zamir_feder_datum(np.array([[0.7071067811865476, 0.7071067811865476]]))
        np.testing.assert_allclose(d.d, [0.5, 0.5], atol=1e-12)
        assert d.partition.blocks == (1, 1)

    def test_identity(self):
        d = blepi.make_zamir_feder_datum(np.eye(2))
        np.testing.assert_allclose(d.d, [1.0, 1.0])

    def test_exponents_sum_to_row_count(self, rng):
        for _ in range(20):
            Q, _ = np.linalg.qr(rng.standard_normal((3, 2)))
            A = Q.T  # 2 x 3 with orthonormal rows
            d = blepi.make_zamir_feder_datum(A)
            assert abs(d.d.sum() - 2.0) <= 1e-9

    def test_rejects_nonorthonormal(self):
        with pytest.raises(ValueError):
            blepi.make_zamir_feder_datum(np.array([[1.0, 1.0]]))


class TestCoupledSumsConstructor:
    def test_balanced_parameters(self):
        d = blepi.make_coupled_sums_datum(1.0, 1.0, 0.5, 0.5)
        assert blepi.validate(d).ok
        total_blocks = float(np.dot(d.d, d.partition.blocks))
        total_images = float(np.dot(d.c, d.image_dims))
        assert total_blocks == pytest.approx(3.0) and total_images == pytest.approx(3.0)
        np.testing.assert_allclose(d.maps[0], [[1, 0, 1], [0, 1, 1]])

    def test_zero_exponent_maps_are_retained(self):
        d = blepi.make_coupled_sums_datum(1.0, 1.0, 0.0, 0.0)
        assert d.m == 3
        assert blepi.scaling_residual(d) == pytest.approx(1.0)

    def test_balance_at_larger_alpha(self):
        d = blepi.make_coupled_sums_datum(1.25, 0.5, 0.5, 0.5)
        assert blepi.scaling_residual(d) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            blepi.make_coupled_sums_datum(1.0, -0.1, 0.5, 0.5)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        d = blepi.make_epi_datum(0.5, 1)
        path = tmp_path / "epi.json"
        blepi.save(d, path)
        loaded = blepi.load(path)
        assert loaded == d
        assert loaded.partition == d.partition
        for A, B in zip(loaded.maps, d.maps):
            assert np.array_equal(A, B)  # exact float preservation

    def test_missing_field_names_it(self, tmp_path):
        path = tmp_path / "broken.json"
        doc = {"partition": [1, 1], "c": [1.0], "d": [0.5, 0.5]}
        path.write_text(json.dumps(doc))
        with pytest.raises(DatumParseError, match="maps"):
            blepi.load(path)

    @pytest.mark.parametrize("maps", [5, None])
    def test_maps_that_are_not_a_list_name_it(self, tmp_path, maps):
        # enumerate() used to raise a raw TypeError, which the CLI reported
        # as an internal error
        path = tmp_path / "broken.json"
        doc = {"partition": [1, 1], "maps": maps, "c": [1.0], "d": [0.5, 0.5]}
        path.write_text(json.dumps(doc))
        with pytest.raises(DatumParseError, match="maps"):
            blepi.load(path)

    @pytest.mark.parametrize(
        "partition, match",
        [("11", "list of sizes, got str"), ([1.7, 1.2], "size 1.7"), ([True, 1], "size True"),
         (2, "list of sizes, got int"), ([1, "1"], "size '1'"), ([math.inf, 1], "size inf")],
    )
    def test_partition_that_is_not_a_list_of_whole_numbers_is_rejected(
        self, tmp_path, partition, match
    ):
        # "11", [1.7, 1.2] and [true, 1] used to load as the partition (1, 1)
        doc = json.loads(_save_to_text(blepi.make_epi_datum(0.5, 1)))
        doc["partition"] = partition
        path = tmp_path / "partition.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DatumParseError, match=f"bad 'partition' field: .*{match}"):
            blepi.load(path)

    @pytest.mark.parametrize(
        "shape, match",
        [("12", "list of sizes, got str"), ([1.9, 2.2], "size 1.9"), ([1, False], "size False")],
    )
    def test_map_shape_that_is_not_a_list_of_whole_numbers_is_rejected(
        self, tmp_path, shape, match
    ):
        # "12" and [1.9, 2.2] used to load as the shape (1, 2)
        doc = json.loads(_save_to_text(blepi.make_epi_datum(0.5, 1)))
        doc["maps"][0]["shape"] = shape
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DatumParseError, match=rf"bad 'maps\[0\]' entry: .*{match}"):
            blepi.load(path)

    @pytest.mark.parametrize("shape", [[-1, 3], [3, -1], [-2, -1]])
    def test_negative_map_shape_is_rejected(self, tmp_path, shape):
        # [-1, 3] with 6 entries used to load as a 2 x 3 map, reshape
        # reading -1 as "the rest"
        doc = json.loads(_save_to_text(blepi.make_epi_datum(0.5, 1)))
        doc["maps"][0] = {"shape": shape, "data": [1.0, 0.0, 0.0, 0.0, 1.0, 0.0]}
        path = tmp_path / "negative.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DatumParseError, match=r"bad 'maps\[0\]' entry: .*negative size"):
            blepi.load(path)

    def test_zero_row_map_loads_and_fails_validation(self, tmp_path):
        doc = json.loads(_save_to_text(blepi.make_epi_datum(0.5, 1)))
        doc["maps"][0] = {"shape": [0, 2], "data": []}
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(doc))
        report = blepi.validate(blepi.load(path))
        assert [i.code for i in report.issues] == ["EMPTY_IMAGE"]

    def test_whole_floats_are_sizes(self, tmp_path):
        d = blepi.make_epi_datum(0.5, 1)
        doc = json.loads(_save_to_text(d))
        doc["partition"] = [1.0, 1]
        doc["maps"][0]["shape"] = [1.0, 2.0]
        path = tmp_path / "floats.json"
        path.write_text(json.dumps(doc))
        loaded = blepi.load(path)
        assert loaded == d
        assert loaded.maps[0].shape == (1, 2)

    @pytest.mark.parametrize(
        "field, value, match",
        [("c", [True], r"bad exponent list: 'c' entry True is not a number"),
         ("d", [True, False], r"bad exponent list: 'd' entry True is not a number"),
         ("d", ["0.5", 0.5], r"bad exponent list: 'd' entry '0.5' is not a number"),
         ("c", "1", r"bad exponent list: 'c' must be a list of numbers, got str"),
         ("data", ["1", "1"], r"bad 'maps\[0\]' entry: 'data' entry '1' is not a number"),
         ("data", [1, None], r"bad 'maps\[0\]' entry: 'data' entry None is not a number"),
         ("c", [10**400], r"bad exponent list: 'c' entry out of the float range")],
    )
    def test_an_exponent_or_map_entry_that_is_not_a_number_is_rejected(
        self, tmp_path, field, value, match
    ):
        # [true] used to load as c = (1.0,), ["0.5", 0.5] as d = (0.5, 0.5)
        # and ["1", "1"] as the map [[1, 1]]; 10**400 raised a raw
        # OverflowError
        doc = json.loads(_save_to_text(blepi.make_epi_datum(0.5, 1)))
        if field == "data":
            doc["maps"][0]["data"] = value
        else:
            doc[field] = value
        path = tmp_path / "entries.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DatumParseError, match=match):
            blepi.load(path)

    @pytest.mark.parametrize("seed", range(12))
    def test_a_bool_or_string_anywhere_in_the_numbers_is_named(self, tmp_path, seed):
        """One entry of c, d or a map's data of a random datum, replaced by
        a bool or a numeric string, is a parse error naming its field; the
        same entry as an int loads as that number."""
        rng = np.random.default_rng(seed)
        datum = random_datum(rng)
        doc = json.loads(_save_to_text(datum))
        field = ("c", "d", "data")[seed % 3]
        j = int(rng.integers(datum.m))
        target = doc["maps"][j]["data"] if field == "data" else doc[field]
        i = int(rng.integers(len(target)))
        name = f"bad exponent list: '{field}'"
        if field == "data":
            name = rf"bad 'maps\[{j}\]' entry: 'data'"
        for bad in (True, False, "1", "0.5"):
            target[i] = bad
            path = tmp_path / "entry.json"
            path.write_text(json.dumps(doc))
            with pytest.raises(DatumParseError, match=f"{name} entry {bad!r} is not a number"):
                blepi.load(path)
        target[i] = 2
        path.write_text(json.dumps(doc))
        loaded = blepi.load(path)
        numbers = loaded.maps[j].ravel() if field == "data" else getattr(loaded, field)
        assert numbers[i] == 2.0 and numbers.dtype == float

    def test_negative_exponent_loads_but_fails_validation(self, tmp_path):
        d = blepi.make_epi_datum(0.5, 1)
        doc = json.loads((_save_to_text(d)))
        doc["c"] = [-1.0]
        path = tmp_path / "neg.json"
        path.write_text(json.dumps(doc))
        loaded = blepi.load(path)
        report = blepi.validate(loaded)
        assert any(i.code == "NEGATIVE_EXPONENT" for i in report.issues)

    def test_garbage_is_a_parse_error(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(DatumParseError):
            blepi.load(path)


def _save_to_text(d):
    from blepi.datum import datum_to_dict

    return json.dumps(datum_to_dict(d))
