"""The small record types: value equality and hashing, immutability where
frozen, validation messages, repr field names and pickling."""

import pickle

import pytest

from cofsat import (BaseSet, CnfFormula, CofactorInterval, LeafResult,
                    OnVerdict, PartialAssignment, TruthTable, Verdict,
                    WorkItem, all_solutions, consistency_over_base,
                    consistency_over_on, cofactor_interval, estimate_cost,
                    var_partition_decompose)
from cofsat.cli import RunConfig
from cofsat.decompose import TreeNode

from helpers import example2_formula


def work_item():
    return WorkItem(PartialAssignment({1: True}),
                    CnfFormula([[2, -3]], universe=[2, 3]), 1)


def leaf_result():
    item = work_item()
    return LeafResult(item, all_solutions(item.formula))


# Each factory builds a fresh, equal value on every call.
FROZEN = {
    "WorkItem": work_item,
    "TreeNode": lambda: TreeNode(3, 0, work_item(), "solvable"),
    "LeafResult": leaf_result,
    "CostEstimate": lambda: estimate_cost(10, 3, 2.0, 0.5),
    "CofactorInterval": lambda: cofactor_interval(
        TruthTable(2, 0b0110), TruthTable.variable(2, 0)),
    "BaseSet": lambda: BaseSet.shannon(2, 1),
    "Verdict": lambda: consistency_over_base(
        TruthTable(2, 0b0100), BaseSet.shannon(2, 0)),
    "OnVerdict": lambda: consistency_over_on(
        TruthTable(2, 0b0100), BaseSet.shannon(2, 0)),
}

REPR_FIELDS = {
    "WorkItem": ("prefix", "formula", "depth"),
    "TreeNode": ("node_id", "parent", "item", "status"),
    "LeafResult": ("item", "solutions"),
    "CostEstimate": ("total_vars", "threshold", "depth", "remainder",
                     "leaf_solve_time", "substitution_time", "total_time"),
    "CofactorInterval": ("lower", "upper"),
    "BaseSet": ("members",),
    "Verdict": ("sat", "witness_index", "witness_point"),
    "OnVerdict": ("sat", "witness_index", "witness_point", "exactly_one"),
}


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_equal_values_are_equal_and_hash_alike(name):
    a, b = FROZEN[name](), FROZEN[name]()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen(name):
    value = FROZEN[name]()
    field = REPR_FIELDS[name][0]
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, field) is not None


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_repr_names_the_fields(name):
    text = repr(FROZEN[name]())
    first, *rest = REPR_FIELDS[name]
    assert text.startswith(f"{name}({first}=")
    assert all(f", {field}=" in text for field in rest)


@pytest.mark.parametrize("name", sorted(FROZEN))
# From 2: TruthTable, PartialAssignment and SolutionSet use __slots__, which
# protocols 0 and 1 cannot save.
@pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip(name, protocol):
    value = FROZEN[name]()
    copy = pickle.loads(pickle.dumps(value, protocol))
    assert type(copy) is type(value)
    assert copy == value and hash(copy) == hash(value)
    assert repr(copy) == repr(value)


def test_verdict_repr_is_pinned():
    verdict = consistency_over_base(TruthTable(1, 0), BaseSet.shannon(1, 0))
    assert repr(verdict) == (
        "Verdict(sat=False, witness_index=None, witness_point=None)")
    assert verdict == Verdict(False, None, None)
    assert consistency_over_on(TruthTable(2, 0b0100), BaseSet.shannon(2, 0)) \
        == OnVerdict(True, 1, 2, True)


def test_keyword_and_positional_construction_agree():
    item = work_item()
    assert WorkItem(prefix=item.prefix, formula=item.formula, depth=1) == item
    assert TreeNode(node_id=3, parent=0, item=item, status="solvable") \
        == FROZEN["TreeNode"]()
    result = leaf_result()
    assert LeafResult(item=item, solutions=result.solutions) == result
    interval = FROZEN["CofactorInterval"]()
    assert CofactorInterval(lower=interval.lower, upper=interval.upper) \
        == interval
    assert BaseSet(members=iter(BaseSet.shannon(2, 1))) == BaseSet.shannon(2, 1)


def test_different_fields_are_unequal():
    item = work_item()
    assert WorkItem(item.prefix, item.formula, 2) != item
    assert TreeNode(3, 0, item, "trivial") != FROZEN["TreeNode"]()
    assert estimate_cost(10, 4, 2.0, 0.5) != estimate_cost(10, 3, 2.0, 0.5)


class TestValidation:
    def test_work_item(self):
        formula = CnfFormula([[2, -3]], universe=[2, 3])
        with pytest.raises(ValueError, match="^depth must be nonnegative$"):
            WorkItem(PartialAssignment(), formula, -1)
        with pytest.raises(ValueError,
                           match=r"^prefix binds formula variables \[2\]$"):
            WorkItem(PartialAssignment({2: False}), formula, 1)
        assert WorkItem(PartialAssignment({2: False}), None, 1).is_dead

    def test_leaf_result(self):
        dead = WorkItem(PartialAssignment({1: True}), None, 1)
        with pytest.raises(
                ValueError,
                match="^dead work items have no solutions to report$"):
            LeafResult(dead, all_solutions(CnfFormula([], universe=[])))
        item = work_item()
        with pytest.raises(
                ValueError,
                match="^solutions are not over the item's universe$"):
            LeafResult(item, all_solutions(CnfFormula([[2]], universe=[2])))

    def test_cofactor_interval(self):
        with pytest.raises(ValueError,
                           match="^interval endpoints out of order$"):
            CofactorInterval(TruthTable.constant(1, True),
                             TruthTable.constant(1, False))

    def test_base_set(self):
        with pytest.raises(ValueError, match="^base set must be nonempty$"):
            BaseSet([])
        with pytest.raises(ValueError,
                           match="^base set members must share one universe$"):
            BaseSet([TruthTable.variable(1, 0), TruthTable.variable(2, 0)])
        with pytest.raises(ValueError,
                           match="^base set members must be nonzero$"):
            BaseSet([TruthTable.variable(1, 0), TruthTable(1, 0)])

    def test_unpickling_validates(self):
        forged = tuple.__new__(WorkItem, (PartialAssignment(), None, -1))
        with pytest.raises(ValueError, match="^depth must be nonnegative$"):
            pickle.loads(pickle.dumps(forged))


class TestBaseSet:
    def test_cover_is_derived_and_left_out(self):
        base = BaseSet([TruthTable(2, 0b0011), TruthTable(2, 0b0100)])
        assert base.cover == TruthTable(2, 0b0111)
        assert repr(base) == f"BaseSet(members={base.members!r})"
        assert "cover" not in repr(base)
        assert pickle.loads(pickle.dumps(base)).cover == base.cover

    def test_equality_and_hash_follow_the_members(self):
        g, h = TruthTable(2, 0b0011), TruthTable(2, 0b1100)
        assert BaseSet([g, h]) == BaseSet((g, h))
        assert hash(BaseSet([g, h])) == hash(BaseSet((g, h)))
        assert BaseSet([g, h]) != BaseSet([h, g])  # order is part of the value

    def test_sequence_of_members(self):
        base = BaseSet.shannon(2, 1)
        assert len(base) == 2
        assert list(base) == list(base.members)
        assert base[1] == ~base[0]


class TestRunConfig:
    def test_value_equality_and_mutability(self):
        a, b = RunConfig("f.cnf"), RunConfig(input_path="f.cnf", mode="sat")
        assert a == b
        b.mode = "count"
        assert a != b and b.mode == "count"
        assert a != "f.cnf"
        with pytest.raises(TypeError):
            hash(a)

    def test_repr(self):
        assert repr(RunConfig("f.cnf", n0=3)) == (
            "RunConfig(input_path='f.cnf', mode='sat', pivot_strategy='vars', "
            "pivot_clause=0, n0=3, jobs=1, output_format='text', "
            "verify=False)")

    def test_pickle_round_trip(self):
        config = RunConfig("f.cnf", mode="allsat", verify=True)
        assert pickle.loads(pickle.dumps(config)) == config


def test_decomposition_tree_pickles():
    tree = var_partition_decompose(example2_formula(), 3)
    copy = pickle.loads(pickle.dumps(tree))
    assert len(copy.nodes) == len(tree.nodes) > 1
    assert copy.nodes == tree.nodes
    assert copy.serialize() == tree.serialize()
    assert copy.disjoint_leaves() == tree.disjoint_leaves()
