"""Domain-type validation, file formats, generator determinism."""

import json
import random
import re

import pytest

from assortopt import (
    Assortment,
    ExactMnlOracle,
    GeneratorSpec,
    GreedyConfig,
    Instance,
    NoiseSpec,
    Product,
    ValidationError,
    generate_instance,
    greedy_opt,
)
from assortopt.analysis import GapBound
from assortopt.cli import main
from assortopt.io import (
    dumps_document,
    fields_to_document,
    instance_digest,
    instance_to_document,
    load_instance,
    noise_from_document,
    noise_to_document,
    parse_instance,
    record_from_document,
    record_to_document,
    serialize_instance,
    solve_report_from_document,
    solve_report_to_document,
)
from references import instance_digest as reference_digest


class TestInstanceValidation:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError) as exc:
            Instance.of([(1, 1.0, 2.0), (1, 2.0, 3.0)])
        assert exc.value.code == "duplicate-id"

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValidationError) as exc:
            Instance.of([(1, 0.0, 2.0)])
        assert exc.value.code == "bad-weight"

    def test_negative_price_rejected(self):
        with pytest.raises(ValidationError) as exc:
            Instance.of([(1, 1.0, -2.0)])
        assert exc.value.code == "bad-price"

    def test_capacity_out_of_range_rejected(self):
        with pytest.raises(ValidationError) as exc:
            Instance.of([(1, 1.0, 2.0)], capacity=2)
        assert exc.value.code == "bad-capacity"

    def test_products_stored_sorted_by_id(self):
        inst = Instance((Product(3, 1.0, 1.0), Product(1, 1.0, 1.0)))
        assert inst.ids() == (1, 3)


class TestAssortment:
    def test_canonical_order_and_dedup(self):
        assert Assortment.of([3, 1, 3]).ids == (1, 3)

    @pytest.mark.parametrize("ids", [[1, 3], [3, 1], range(1, 3), ()], ids=repr)
    def test_any_iterable_of_ids_is_stored_as_its_tuple(self, ids):
        # an ascending list or range is converted too, so the set hashes and
        # equals the one built from the tuple
        canonical = tuple(sorted(ids))
        assortment = Assortment(ids)
        assert type(assortment.ids) is tuple
        assert assortment.ids == canonical
        assert assortment == Assortment(canonical)
        assert hash(assortment) == hash(Assortment(canonical))

    def test_encoding(self):
        assert Assortment().encode() == ""
        assert Assortment.of([3, 1]).encode() == "1,3"

    def test_set_operations(self):
        m = Assortment.of([1, 3])
        assert m.after_move(2).ids == (1, 2, 3)
        assert m.after_move(5, 1).ids == (3, 5)

    def test_ordering_is_lexicographic(self):
        assert Assortment.of([1, 2]) < Assortment.of([1, 10])
        assert Assortment() < Assortment.of([1])


class TestInstanceFiles:
    def test_minimal_document(self):
        inst, meta = parse_instance(
            '{"schema_version": "1", "products": [{"id": 1, "weight": "2.0", "price": 3}]}'
        )
        assert inst.n == 1
        assert inst.product(1).weight == 2.0
        assert meta == {}

    def test_duplicate_id_code(self):
        doc = {
            "schema_version": "1",
            "products": [
                {"id": 1, "weight": "1.0", "price": "1.0"},
                {"id": 1, "weight": "1.0", "price": "1.0"},
            ],
        }
        with pytest.raises(ValidationError) as exc:
            parse_instance(doc)
        assert exc.value.code == "duplicate-id"

    @pytest.mark.parametrize(
        "mutate, code",
        [
            (lambda d: d.update(schema_version="99"), "schema"),
            (lambda d: d.update(products={}), "schema"),
            (lambda d: d["products"][0].pop("weight"), "schema"),
            (lambda d: d["products"][0].update(id="x"), "schema"),
            (lambda d: d["products"][0].update(weight="-1.0"), "bad-weight"),
            (lambda d: d["products"][0].update(price="-0.5"), "bad-price"),
            (lambda d: d.update(capacity=7), "bad-capacity"),
        ],
    )
    def test_rejection_codes(self, mutate, code):
        doc = {
            "schema_version": "1",
            "products": [{"id": 1, "weight": "1.0", "price": "1.0"}],
        }
        mutate(doc)
        with pytest.raises(ValidationError) as exc:
            parse_instance(doc)
        assert exc.value.code == code

    @pytest.mark.parametrize(
        "product, code",
        [
            ({"weight": " 1.0 "}, "bad-weight"),
            ({"weight": "1.0\n"}, "bad-weight"),
            ({"price": "1_0"}, "bad-price"),
            ({"weight": 1.0, "price": "\t1.0"}, "bad-price"),
        ],
        ids=["weight-spaces", "weight-newline", "price-underscore", "price-tab"],
    )
    def test_decimals_are_read_as_written(self, product, code):
        """float() reads these, but they are not the decimal a document writes."""
        doc = {"schema_version": "1", "products": [{"id": 1, "weight": "1.0", "price": "1.0"}]}
        doc["products"][0].update(product)
        with pytest.raises(ValidationError) as exc:
            parse_instance(doc)
        assert exc.value.code == code

    def test_integer_decimal_is_accepted(self):
        """"10" is no repr of a float, but it is a plain decimal: only text that float()
        reads but ignores (whitespace, "_") is refused, not every non-repr form."""
        inst, _ = parse_instance(
            '{"schema_version": "1", "products": [{"id": 1, "weight": "10", "price": "2"}]}'
        )
        assert (inst.product(1).weight, inst.product(1).price) == (10.0, 2.0)

    @pytest.mark.parametrize(
        "text",
        [
            '{"schema_version": "1", "schema_version": "1", "products": []}',
            '{"schema_version": "1", "products": [{"id": 1, "weight": "1.0", "price": "2.0",'
            ' "price": "3.0"}]}',
            '{"schema_version": "1", "products": [], "metadata": {"a": 1, "a": 1}}',
        ],
        ids=["top-level", "in-a-product", "in-metadata"],
    )
    def test_repeated_key_is_a_schema_error(self, text):
        """json.loads keeps the last copy of a repeated key; a document must name it once."""
        for document in (text, text.encode("utf-8")):
            with pytest.raises(ValidationError, match="appears twice") as exc:
                parse_instance(document)
            assert exc.value.code == "schema"

    @pytest.mark.parametrize(
        "raw",
        [
            b'{"schema_version": "1", "products": [], "metadata": {"note": "\xff"}}',
            '{"schema_version": "1", "products": []}'.encode("utf-16"),
        ],
        ids=["not-utf8", "utf16"],
    )
    def test_bytes_are_read_as_utf8(self, raw):
        """Bytes are parsed as UTF-8, as a file is: bytes in another encoding are a schema
        error, even where json.loads would detect the encoding."""
        with pytest.raises(ValidationError, match="not valid JSON") as exc:
            parse_instance(raw)
        assert exc.value.code == "schema"

    def test_round_trip_is_identity_on_canonical_form(self):
        rng = random.Random(8080)
        for _ in range(25):
            inst = generate_instance(GeneratorSpec(rng.randint(0, 9), seed=rng.getrandbits(60)))
            text = serialize_instance(inst, {"note": "fixture"})
            parsed, meta = parse_instance(text)
            assert parsed == inst
            assert meta == {"note": "fixture"}
            assert serialize_instance(parsed, meta) == text

    def test_awkward_floats_round_trip_bit_exact(self):
        inst = Instance.of([(1, 0.1, 1 / 3), (2, 1e-15 + 1, 99.999999999999999)])
        parsed, _ = parse_instance(serialize_instance(inst))
        for original, back in zip(inst.products, parsed.products):
            assert back.weight == original.weight
            assert back.price == original.price

    @pytest.mark.parametrize(
        "instance",
        [
            generate_instance(GeneratorSpec(8, seed=7)),
            Instance(generate_instance(GeneratorSpec(8, seed=7)).products, 3),
            Instance.of([(1, 2, 3), (4, 1, 0)], 2),
            Instance((Product(1, 2, 3), Product(2, True, 0))),
            Instance.of([(1, 5e-324, 1e300), (2, 1.0, 5e-324), (3, 1.0, 0.0)]),
            Instance.of([(1, 1e300, 5e-324), (2, 5e-324, 0.0)]),
            Instance.of([(10**12, 0.5, 2.0), (999_999_999_999, 3.0, 1.5), (1, 1e-3, 7.0)], 1),
            Instance(()),
        ],
        ids=["capacity-none", "capacity-int", "of-int-weights", "int-and-bool-values",
             "tiny-weight-huge-price", "huge-weight-tiny-price", "large-ids", "empty"],
    )
    def test_digest_is_the_compact_sorted_json_of_the_document(self, instance):
        assert instance_digest(instance) == reference_digest(instance)

    def test_every_fixture_keeps_its_digest(self, fixtures_dir):
        # an exact output records the digest of the instance file it was run on
        checked = 0
        for path in sorted(fixtures_dir.glob("*.json")):
            doc = json.loads(path.read_text(encoding="utf-8"))
            if "products" in doc:
                instance = parse_instance(doc)[0]
                assert instance_digest(instance) == reference_digest(instance), path.name
            if "instance_digest" in doc:
                if "instance" in doc:
                    instance = parse_instance(doc["instance"])[0]
                else:
                    source = re.fullmatch(r"exact_(.+)_C\d+\.json", path.name).group(1)
                    instance = load_instance(str(fixtures_dir / f"{source}.json"))[0]
                assert instance_digest(instance) == doc["instance_digest"], path.name
                checked += 1
        assert checked == 3

    def test_digest_ignores_metadata(self):
        inst = generate_instance(GeneratorSpec(4, seed=3))
        assert instance_digest(inst) == instance_digest(inst)
        doc_a = instance_to_document(inst, {"x": 1})
        doc_b = instance_to_document(inst, {"y": 2})
        assert parse_instance(doc_a)[0] == parse_instance(doc_b)[0]

    def test_golden_fixture_matches_generator(self, fixtures_dir):
        inst, meta = load_instance(str(fixtures_dir / "generated_n8_seed7.json"))
        regenerated = generate_instance(GeneratorSpec(8, seed=7))
        assert inst == regenerated
        assert meta["generator"]["seed"] == 7


class TestGenerator:
    def test_zero_products(self):
        assert generate_instance(GeneratorSpec(0, seed=1)).n == 0

    def test_same_spec_same_instance(self):
        spec = GeneratorSpec(8, seed=424242)
        assert generate_instance(spec) == generate_instance(spec)

    def test_ranges_respected(self):
        spec = GeneratorSpec(50, weight_lo=0.5, weight_hi=2.0, price_lo=10.0, price_hi=20.0, seed=5)
        inst = generate_instance(spec)
        for p in inst.products:
            assert 0.5 <= p.weight <= 2.0
            assert 10.0 <= p.price <= 20.0

    def test_bad_ranges_rejected(self):
        with pytest.raises(ValidationError):
            GeneratorSpec(3, weight_lo=0.0)
        with pytest.raises(ValidationError):
            GeneratorSpec(3, price_lo=5.0, price_hi=1.0)
        with pytest.raises(ValidationError):
            GeneratorSpec(-1)


class TestReportRoundTrip:
    def test_solve_report_with_traces(self):
        inst = generate_instance(GeneratorSpec(6, seed=99))
        report = greedy_opt(GreedyConfig(0, 3, 4), inst.ids(), ExactMnlOracle(inst), trace=True)
        doc = solve_report_to_document(report)
        back = solve_report_from_document(json.loads(json.dumps(doc)))
        assert back.best_assortment == report.best_assortment
        assert back.best_oracle_revenue == report.best_oracle_revenue
        assert back.oracle_calls == report.oracle_calls
        assert back.traces == report.traces
        # the exchange-out count is not written, so a report read back certifies nothing
        assert "max_exchange_outs" not in doc
        assert report.max_exchange_outs is not None and back.max_exchange_outs is None

    def test_flat_records_are_written_field_by_field(self):
        """Every field in declaration order; one declared float is its ``repr`` text even
        when it holds an int, and any other field is its value."""
        bound = GapBound(eta=0.5, f_value=1.25, capacity=3, eps_max=0, max_offered_weight=4.0,
                         opt_weight=2.0, delta_cap=1e-3)
        assert list(fields_to_document(bound).items()) == [
            ("eta", "0.5"), ("f_value", "1.25"), ("capacity", 3), ("eps_max", "0.0"),
            ("max_offered_weight", "4.0"), ("opt_weight", "2.0"), ("delta_cap", "0.001"),
        ]
        assert list(fields_to_document(GeneratorSpec(5, seed=3)).items()) == [
            ("n", 5), ("weight_lo", "0.1"), ("weight_hi", "10.0"), ("price_lo", "1.0"),
            ("price_hi", "100.0"), ("seed", 3),
        ]

    def test_record_document_round_trip(self):
        inst = generate_instance(GeneratorSpec(5, seed=17))
        noise = NoiseSpec(mode="seeded-uniform", eps=0.01, seed=4)
        oracle = ExactMnlOracle(inst)
        report = greedy_opt(GreedyConfig(0, 2, 3), inst.ids(), oracle, trace=True)
        _seed, records = report.traces[0]
        for record in records:
            assert record_from_document(record_to_document(record)) == record
        assert noise == NoiseSpec(mode="seeded-uniform", eps=0.01, seed=4)

    @pytest.mark.parametrize(
        "spec",
        [NoiseSpec(), NoiseSpec(mode="fixed", eps=0.01, seed=3),
         NoiseSpec(mode="seeded-uniform", eps=0.2, seed=9)],
        ids=["none", "fixed", "seeded-uniform"],
    )
    def test_noise_document_keeps_the_level_under_its_mode_key(self, spec):
        doc = noise_to_document(spec)
        assert list(doc) == ["mode", "eps_fixed", "eps_max", "seed"]
        unused = {"none": ("eps_fixed", "eps_max"), "fixed": ("eps_max",),
                  "seeded-uniform": ("eps_fixed",)}[spec.mode]
        assert all(doc[key] == "0.0" for key in unused)
        assert noise_from_document(json.loads(json.dumps(doc))) == spec

    @pytest.mark.parametrize(
        "doc",
        [{"mode": "fixed", "eps_fixed": "0.01", "eps_max": "0.3"},
         {"mode": "fixed", "eps_max": "0.3"},
         {"mode": "seeded-uniform", "eps_fixed": "0.2", "eps_max": "0.01"},
         {"mode": "none", "eps_max": "0.5"},
         {"mode": "none", "eps_fixed": "0.5"},
         {"eps_fixed": "nan"}],
        ids=["fixed-with-eps-max", "fixed-with-only-eps-max", "seeded-with-eps-fixed",
             "none-with-eps-max", "none-with-eps-fixed", "default-mode-with-nan"],
    )
    def test_noise_level_under_the_other_mode_key_is_refused(self, doc):
        with pytest.raises(ValidationError) as exc:
            noise_from_document(doc)
        assert exc.value.code == "bad-noise"

    @pytest.mark.parametrize(
        "counts",
        [{"0_5": 1}, {" +5 ": 1}, {"05": 1}, {"+5": 1}, {"5.0": 1}, {"0": 1}, {"-1": 1},
         {"٥": 1}, {"5": 1, "05": 2}, {"x": 1}, {"": 1}],
    )
    def test_exchange_out_keys_are_canonical_product_ids(self, counts):
        inst = generate_instance(GeneratorSpec(6, seed=3))
        report = greedy_opt(GreedyConfig(0, 2, 3), inst.ids(), ExactMnlOracle(inst), trace=True)
        doc = record_to_document(report.traces[0][1][0])
        assert record_from_document(dict(doc, exchange_out_counts={"5": 1, "12": 2})).exchange_out_counts == {
            5: 1, 12: 2
        }
        with pytest.raises(ValidationError) as exc:
            record_from_document(dict(doc, exchange_out_counts=counts))
        assert exc.value.code == "schema"

    @pytest.mark.parametrize(
        "action, added, removed, missing",
        [("add", None, None, "added"), ("exchange", None, 5, "added"),
         ("exchange", 5, None, "removed"), ("exchange", None, None, "added"),
         ("add", 5, None, None), ("exchange", 5, 2, None), ("terminate", None, None, None),
         ("add", 99, None, None)],
    )
    def test_a_move_record_names_its_products(self, action, added, removed, missing):
        """A null product of a move is a schema error that names the action; whether a named
        id is one of the instance's is left to the trace checks."""
        inst = generate_instance(GeneratorSpec(6, seed=3))
        report = greedy_opt(GreedyConfig(0, 2, 3), inst.ids(), ExactMnlOracle(inst), trace=True)
        doc = dict(record_to_document(report.traces[0][1][0]), action=action, added=added, removed=removed)
        if missing is None:
            record = record_from_document(doc)
            assert (record.action, record.added, record.removed) == (action, added, removed)
            return
        with pytest.raises(ValidationError, match=f"{action} record names no {missing} product") as exc:
            record_from_document(doc)
        assert exc.value.code == "schema"

    @pytest.mark.parametrize("ids", [[True], [1, 2.0], ["3"], [1, None], [[1]], "12", 7, {"1": 1}])
    def test_id_lists_hold_json_integers(self, ids):
        inst = generate_instance(GeneratorSpec(6, seed=3))
        report = greedy_opt(GreedyConfig(0, 2, 3), inst.ids(), ExactMnlOracle(inst), trace=True)
        doc = record_to_document(report.traces[0][1][0])
        for field in ("pool_before", "assortment_before", "assortment_after"):
            with pytest.raises(ValidationError) as exc:
                record_from_document(dict(doc, **{field: ids}))
            assert exc.value.code == "schema"


class Flag(int):
    """An int subclass, which the stdlib writes through ``int.__repr__``."""

    def __repr__(self):
        return "Flag()"


class Ratio(float):
    """A float subclass, which the stdlib writes through ``float.__repr__``."""

    def __repr__(self):
        return "Ratio()"


class TestDumpsDocument:
    """``dumps_document`` writes the bytes of ``json.dumps(doc, indent=2) + "\n"``."""

    def test_every_fixture(self, fixtures_dir):
        paths = sorted(fixtures_dir.glob("*.json"))
        assert paths
        for path in paths:
            raw = path.read_text(encoding="utf-8")
            doc = json.loads(raw)
            assert dumps_document(doc) == json.dumps(doc, indent=2) + "\n" == raw, path.name

    @pytest.mark.parametrize(
        "noise", [[], ["--noise-mode", "seeded-uniform", "--eps", "0.001", "--seed", "5"]]
    )
    def test_traced_report_at_n_200(self, tmp_path, noise):
        instance_path, report_path = tmp_path / "inst.json", tmp_path / "report.json"
        assert main(["gen", "--N", "200", "--seed", "1", "-o", str(instance_path)]) == 0
        argv = ["solve", str(instance_path), "--C", "15", "--trace", "--exact", *noise]
        assert main([*argv, "-o", str(report_path)]) == 0
        raw = report_path.read_text(encoding="utf-8")
        doc = json.loads(raw)
        assert doc["result"]["traces"][0]["records"][0]["pool_before"]
        assert dumps_document(doc) == json.dumps(doc, indent=2) + "\n" == raw

    @pytest.mark.parametrize(
        "doc",
        [
            [], {}, [[]], {"a": {}}, [{}, []], (), (1, 2), {"t": (3, (4, "x"))},
            [1, True, None, 1.5, "x"], [True, False], 0, -7, 10**30, "", None, False, 2.5,
            float("nan"), float("inf"), -float("inf"), [float("nan"), -0.0, 1e-300],
            {"é": "naïve ∑ 😀", "ctl": "\x00\x1f\t\n\r\"\\/\x7f"},
            {1: [1, 2], 2: {}}, {1.5: "a", -0.0: [3]}, {True: 1, False: [2]}, {None: {"k": []}},
            {"mixed": {1: "a", "b": [2, {3: None}]}},
            Flag(3), [Flag(1), 2], {"flag": Flag(4)}, {Flag(5): "key"},
            {"deep": [[[[1, [2, [3]]]]], {"x": [{"y": [True]}]}]},
        ],
    )
    def test_edge_cases(self, doc):
        assert dumps_document(doc) == json.dumps(doc, indent=2) + "\n"

    LEAVES = [
        None, True, False, 0.0, -0.0, 1e16, 5e-324, -1.5e-310, 1.7976931348623157e308,
        0.1, 2.5, -3.0, 7, -0, 10**30, "", "x", "é\n\"", Ratio(0.5), Ratio(float("nan")),
        float("nan"), float("inf"), -float("inf"), Flag(2),
    ]

    @pytest.mark.parametrize(
        "doc",
        [
            LEAVES,
            {f"k{i}": leaf for i, leaf in enumerate(LEAVES)},
            [{"a": None, "b": True, "c": 1e16}, {"d": -0.0, "e": 5e-324}, {"f": float("nan")}],
            {"flat": {"x": False, "y": 0.25}, "list": [None, -0.0], "leaf": 5e-324},
            {"record": {"step": 3, "added": None, "revenue_after": 2.5, "pool": [1, 2],
                        "counts": {"7": 1}, "ratio": Ratio(1.0), "inf": float("inf")}},
            [[None], [True, False], [1e16, -0.0], {"k": Ratio(2.0)}, {"n": -float("inf")}],
        ],
        ids=["leaves", "flat-dict", "flat-dicts", "nested", "record", "lists"],
    )
    def test_leaves_and_flat_containers(self, doc):
        # None, bools and floats, alone or in lists and str-keyed dicts of leaves, and
        # the float subclasses and non-finite floats that such a container may hold
        assert dumps_document(doc) == json.dumps(doc, indent=2) + "\n"
        for leaf in self.LEAVES:
            assert dumps_document(leaf) == json.dumps(leaf, indent=2) + "\n"

    class Cell(dict):
        """A dict subclass, which goes to ``json.dumps`` whole."""

    FLAT_DICT_LISTS = {
        "products": [{"id": i, "weight": repr(i / 7), "price": "2.5"} for i in range(1, 6)],
        "braces-in-strings": [{"a": "}\n{", "b": "},{"}, {"c": "},\n      {", "d": "}"}],
        "non-ascii": [{"é": "naïve ∑ 😀"}, {"ctl": "\x00\x1f\t\"\\/\x7f"}],
        "non-finite-bools-none": [{"n": float("nan"), "i": float("inf")}, {"m": -float("inf")},
                                  {"t": True, "f": False, "z": None}],
        "one-dict": [{"only": 1}],
        "tuple": ({"a": 1}, {"b": 2.5}),
        "empty-dict": [{"a": 1}, {}, {"b": 2}],
        "dict-subclass": [{"a": 1}, Cell(b=2)],
        "non-str-key": [{"a": 1}, {2: "b"}],
        "mixed-with-ints": [{"a": 1}, 2, {"b": 3}],
        "nested-value": [{"a": [1, 2]}, {"b": {"c": 3}}],
    }

    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    @pytest.mark.parametrize("case", list(FLAT_DICT_LISTS))
    def test_lists_of_flat_dicts(self, case, depth):
        # a list of non-empty str-keyed dicts of leaves is one encoder call at the dicts'
        # depth; every other list of dicts, at any depth, is written as json.dumps writes it
        doc = self.FLAT_DICT_LISTS[case]
        for level in range(depth):
            doc = {"cells": doc, "n": level} if level % 2 == 0 else [level, doc]
        assert dumps_document(doc) == json.dumps(doc, indent=2) + "\n"

    def test_random_documents(self):
        rng = random.Random(2020)
        leaves = self.LEAVES + ["a}", "b],\n  {", "\\"]
        keys = ["k", "id", "weight", "é", "", 1, 2.5, None, True]

        def draw(depth):
            roll = rng.random()
            if depth > 3 or roll < 0.3:
                return rng.choice(leaves)
            if roll < 0.55:
                return [draw(depth + 1) for _ in range(rng.randint(0, 4))]
            if roll < 0.65:
                return tuple(draw(depth + 1) for _ in range(rng.randint(0, 3)))
            # mostly str keys, so most dicts take the flat or mixed str-keyed path
            return {
                rng.choice(keys) if rng.random() < 0.1 else rng.choice(keys[:5]): draw(depth + 1)
                for _ in range(rng.randint(0, 4))
            }

        for _ in range(500):
            doc = draw(0)
            assert dumps_document(doc) == json.dumps(doc, indent=2) + "\n"

    def test_without_the_c_encoder(self, monkeypatch):
        # an interpreter without the stdlib's C accelerator writes the same bytes
        import assortopt.io as io_module

        monkeypatch.setattr(io_module, "c_make_encoder", None)
        io_module._flat_writer.cache_clear()
        try:
            doc = {"products": [{"id": 1, "weight": "0.5", "x": None}], "ids": [3, 1], "f": [1e16, -0.0]}
            assert dumps_document(doc) == json.dumps(doc, indent=2) + "\n"
        finally:
            io_module._flat_writer.cache_clear()
