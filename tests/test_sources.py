"""The sources parse under the oldest Python that pyproject.toml admits; no new hidden slots."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_sources_parse_under_requires_python():
    floor = re.search(r'requires-python = ">=3\.(\d+)"', (ROOT / "pyproject.toml").read_text())
    assert floor and int(floor.group(1)) == 10
    sources = [*ROOT.glob("src/fivevertex/*.py"), *ROOT.glob("tests/*.py"),
               *ROOT.glob("demos/*.py")]
    assert len(sources) > 30
    for path in sources:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, int(floor.group(1))))


def test_the_only_hidden_slot_is_the_one_the_fixture_empties():
    # conftest.forget_kept_tables empties it; a new module-level _last_* slot
    # would keep state between calls that no fixture resets
    slots = set()
    for path in sorted(ROOT.glob("src/fivevertex/*.py")):
        for node in ast.parse(path.read_text()).body:
            targets = node.targets if isinstance(node, ast.Assign) else \
                [node.target] if isinstance(node, ast.AnnAssign) else []
            slots |= {f"{path.stem}.{t.id}" for t in targets
                      if isinstance(t, ast.Name) and t.id.startswith("_last_")}
    assert slots == {"wavefunc._last_sector"}


def test_every_size_and_number_refusal_is_worded_in_one_place():
    # partitions._require_int and _require_finite word every such refusal; a
    # hand-worded copy elsewhere would drift from the one message form
    wording = {path.name for path in ROOT.glob("src/fivevertex/*.py")
               if re.search(r"must be an int|must be a finite", path.read_text())}
    assert wording == {"partitions.py"}
    for name in ("_refuse_non_int", "_check_time"):
        paths = (*ROOT.glob("src/fivevertex/*.py"), *ROOT.glob("tests/*.py"))
        users = [path.name for path in paths
                 if name in path.read_text() and path.name != "test_sources.py"]
        assert users == [], name


def test_the_float_determinants_are_taken_in_two_places():
    # the Matrix lane (linalg.det) and the stacked lane (symfunc.stacked_ratio, which
    # single-partition vectors and window form factors share) take every LAPACK determinant
    sites = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{where.split('.')[0]}.{child.name}")
                continue
            if isinstance(child, ast.Attribute) and child.attr == "det" \
                    and ast.unparse(child.value) in ("np.linalg", "numpy.linalg"):
                sites.append(where)
            visit(child, where)

    for path in sorted(ROOT.glob("src/fivevertex/*.py")):
        text = path.read_text()
        assert "from numpy.linalg import" not in text, path.name
        visit(ast.parse(text), path.stem)
    assert sorted(sites) == ["linalg.det", "symfunc.stacked_ratio"]
    # the stacked class these replaced, and its chunk knob, stay gone
    for name in ("BialternantStack", "_CHUNK_ENTRIES"):
        paths = (*ROOT.glob("src/fivevertex/*.py"), *ROOT.glob("tests/*.py"))
        users = [path.name for path in paths
                 if name in path.read_text() and path.name != "test_sources.py"]
        assert users == [], name


def test_the_relation_products_and_the_proof_field_are_each_in_one_place():
    # rll_check, ybe_check and rtilde_check (and the Appendix A family through
    # rll_check) take their 8x8 products in vertex._relation_holds, which clears
    # exact factors of their denominators; a product chain compared elsewhere
    # would skip that lane
    products, embeds = [], []
    for node in ast.parse((ROOT / "src/fivevertex/vertex.py").read_text()).body:
        if not isinstance(node, ast.FunctionDef):
            continue
        for child in ast.walk(node):
            sides = (child.left, *child.comparators) if isinstance(child, ast.Compare) else ()
            if any(isinstance(side, ast.BinOp) and isinstance(side.op, ast.Mult)
                   and isinstance(side.left, ast.BinOp) for side in sides):
                products.append(node.name)
            if isinstance(child, ast.Call) and ast.unparse(child.func) == "embed_two_site":
                embeds.append(node.name)
    assert products == ["_relation_holds"] and embeds == ["_relation_holds"]
    # the one rational-function field the package builds (criterion 3's proofs)
    # is over ZZ, so its polynomial rings carry int coefficients
    fields, rationals = [], []
    for path in sorted(ROOT.glob("src/fivevertex/*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            # sympy's field(symbols, domain); dataclasses.field takes keywords only
            if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "field" \
                    and node.args:
                fields.append((path.stem, ast.unparse(node.args[-1])))
            if isinstance(node, (ast.Name, ast.alias)) and "QQ" in (
                    getattr(node, "id", None), getattr(node, "name", None)):
                rationals.append(path.stem)
    assert fields == [("acceptance", "ZZ")] and rationals == []


def test_one_exact_ratio_path():
    # every exact determinant ratio is a PointTable pick: the multi-set det_ratios,
    # the grothendieck_evals list lane and the table's lazily evaluated rows stay gone
    paths = (*ROOT.glob("src/fivevertex/*.py"), *ROOT.glob("tests/*.py"))
    for name in ("det_ratios", "grothendieck_evals", "_evaluate"):
        word = re.compile(rf"\b{name}\b")
        users = [path.name for path in paths
                 if word.search(path.read_text()) and path.name != "test_sources.py"]
        assert users == [], name


def test_acceptance_fails_a_criterion_in_one_place():
    # every criterion is a generator of check records folded by acceptance._verdict,
    # whose `not deviation <= budget` fails a NaN; a verdict built elsewhere would skip it
    verdicts = []
    for node in ast.parse((ROOT / "src/fivevertex/acceptance.py").read_text()).body:
        if isinstance(node, ast.FunctionDef):
            verdicts += [(node.name, ast.unparse(value)) for child in ast.walk(node)
                         if isinstance(child, ast.Dict)
                         for key, value in zip(child.keys, child.values)
                         if isinstance(key, ast.Constant) and key.value == "passed"]
    assert sorted(verdicts) == [("_verdict", "False"), ("_verdict", "True")]


def test_all_criteria_are_the_ten_numbered_functions_in_order():
    # the benchmark calls getattr(acceptance, name)(seed) for criteria 1-6 and
    # name() for 7-10, by the names in ALL_CRITERIA
    import inspect

    from fivevertex import acceptance

    names = [criterion.__name__ for criterion in acceptance.ALL_CRITERIA]
    assert [int(name.split("_")[1]) for name in names] == list(range(1, 11))
    assert sorted(names) == sorted(name for name in vars(acceptance)
                                   if re.fullmatch(r"criterion_\d+_\w+", name))
    for k, criterion in enumerate(acceptance.ALL_CRITERIA, start=1):
        assert getattr(acceptance, criterion.__name__) is criterion
        params = list(inspect.signature(criterion).parameters.values())
        if k <= 6:
            assert [(p.name, p.kind, p.default) for p in params] == \
                [("seed", inspect.Parameter.POSITIONAL_OR_KEYWORD, 100 + k)]
        else:
            assert params == []


def test_only_scalars_decides_an_exact_lane_by_type():
    # scalars.cleared_type is the exact lane's one rule; a `type(x) is Fraction`
    # or an (int, Fraction) test elsewhere would grow a rule of its own.
    # linalg.det and Matrix.__eq__ use theirs to pick an algorithm, not a lane
    sites = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}")
                continue
            if isinstance(child, ast.Compare) and isinstance(child.left, ast.Call) \
                    and ast.unparse(child.left.func) == "type" \
                    and any(ast.unparse(c) == "Fraction" for c in child.comparators):
                sites.append(where)
            if isinstance(child, ast.Tuple) \
                    and {"int", "Fraction"} <= {ast.unparse(e) for e in child.elts}:
                sites.append(where)
            visit(child, where)

    for path in sorted(ROOT.glob("src/fivevertex/*.py")):
        if path.stem != "scalars":
            visit(ast.parse(path.read_text()), path.stem)
    assert sorted(sites) == ["linalg.Matrix.__eq__", "linalg.det"]


def _function(module, qualname):
    """The ast node of ``qualname`` (``Class.method`` or ``function``) in a package module."""
    node = ast.parse((ROOT / "src/fivevertex" / f"{module}.py").read_text())
    for name in qualname.split("."):
        node = next(child for child in node.body
                    if isinstance(child, (ast.FunctionDef, ast.ClassDef)) and child.name == name)
    return node


def _calls(node):
    return {ast.unparse(child.func) for child in ast.walk(node) if isinstance(child, ast.Call)}


def test_the_symmetric_function_layer_makes_each_decision_once():
    # the box order is spelled in partitions alone, and the box plans read it without
    # building a Partition per row
    spellers = [path.name for path in ROOT.glob("src/fivevertex/*.py")
                if "combinations_with_replacement" in path.read_text()]
    assert spellers == ["partitions.py"]
    assert {"box_parts"} <= _calls(_function("symfunc", "_box_plan"))
    assert not {"Partition", "enumerate_box"} & _calls(_function("symfunc", "_box_plan"))
    # a table's picks take the table's one type, which scalars.cleared_quotient takes
    # as it is: no per-pick cleared_type, no leading-coefficient branch
    assert "cleared_type" not in _calls(_function("confluent", "PointTable.ratios"))
    assert ".LC" not in (ROOT / "src/fivevertex/scalars.py").read_text()
    # the weighted sums are one box at rescaled variables: no weight table, no second box
    calls = _calls(_function("identities", "grothendieck_sum_check"))
    assert "grothendieck_box_cleared" in calls
    assert not {"numer_denom", "box_parts", "enumerate_box"} & calls
    # one Grothendieck evaluator: the float lanes and the passes take no dual, whose
    # values come from the primal box through the plan's complement
    for name in ("bialternants", "grothendieck_box", "_branch"):
        assert "dual" not in [a.arg for a in _function("symfunc", name).args.args], name


def test_the_bethe_states_are_one_sweep():
    # both states sweep the whole (dual) state through the site tables of each value:
    # no per-step column contraction, and no reordering of the bra's sums
    source = (ROOT / "src/fivevertex/sector.py").read_text()
    assert not re.search(r"\b_bethe_steps\b", source)
    for name in ("bethe_state", "dual_bethe_state", "_state"):
        assert "sorted" not in _calls(_function("sector", name)), name
    assert _calls(_function("sector", "bethe_state")) == {"_state"}
    assert _calls(_function("sector", "dual_bethe_state")) == {"_state"}
    assert {"_sweep", "_site_tables"} <= _calls(_function("sector", "_state"))
    assert "_columns" not in _calls(_function("sector", "_state"))


def test_the_bethe_layer_makes_each_decision_once():
    # twins and conjugate partners are found by the one root-set matcher: no rounding grid
    for name in ("_first_kept_twins", "_conjugate_partners"):
        assert "_close_rows" in _calls(_function("tasep", name)), name
    tree = ast.parse((ROOT / "src/fivevertex/tasep.py").read_text())
    rounders = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                and "np.round" in _calls(node)}
    assert rounders == {"_canonical"}  # the canonical order's sort keys
    # one TASEP-point rule, taken by the solver and by the form factors
    source = (ROOT / "src/fivevertex/tasep.py").read_text()
    assert "!= -1" not in source and source.count("beta + 1") == 1
    assert "_tasep_point" in _calls(_function("tasep", "bethe_solve"))
    assert "_tasep_point" in _calls(_function("tasep", "Spectrum.form_factors"))
    # one verdict per path: each rejection reason is spelled once
    for reason in ("stalled (step below", "above {RESIDUAL_TOL:g}", "coincident roots at s = 1",
                   "same solution set as choice", "(all roots at 1), inserted analytically"):
        assert source.count(reason) == 1, reason
