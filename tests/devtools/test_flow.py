"""The dataflow core: CFG construction, reaching definitions, resolution."""

from __future__ import annotations

import ast
import textwrap

from repro.devtools.flow import Definition, FlowGraph, ModuleFlow


def flow_of(source: str) -> ModuleFlow:
    return ModuleFlow(ast.parse(textwrap.dedent(source)))


def func_named(flow: ModuleFlow, name: str) -> ast.FunctionDef:
    for node in ast.walk(flow.tree):
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    raise AssertionError(f"no function {name!r}")


def name_loads(flow: ModuleFlow, name: str):
    return [
        node
        for node in ast.walk(flow.tree)
        if isinstance(node, ast.Name) and node.id == name
        and isinstance(node.ctx, ast.Load)
    ]


class TestReachingDefinitions:
    def test_straight_line_single_definition(self):
        flow = flow_of(
            """
            def f():
                x = {1, 2}
                return x
            """
        )
        (use,) = name_loads(flow, "x")
        defs = flow.definitions_for(use)
        assert len(defs) == 1
        assert next(iter(defs)).kind == "assign"

    def test_rebinding_kills_the_earlier_definition(self):
        flow = flow_of(
            """
            def f():
                x = {1}
                x = [1]
                return x
            """
        )
        (use,) = name_loads(flow, "x")
        defs = flow.definitions_for(use)
        assert len(defs) == 1
        assert isinstance(next(iter(defs)).value, ast.List)

    def test_branches_merge_both_definitions(self):
        flow = flow_of(
            """
            def f(flag):
                if flag:
                    x = {1}
                else:
                    x = [1]
                return x
            """
        )
        (use,) = name_loads(flow, "x")
        values = {type(d.value).__name__ for d in flow.definitions_for(use)}
        assert values == {"Set", "List"}

    def test_loop_back_edge_carries_loop_body_definition(self):
        flow = flow_of(
            """
            def f(items):
                x = set()
                for item in items:
                    y = x
                    x = [item]
                return x
            """
        )
        use = name_loads(flow, "x")[0]  # the `y = x` read inside the loop
        values = {type(d.value).__name__ for d in flow.definitions_for(use)}
        # First iteration sees the set(); later iterations see the list.
        assert values == {"Call", "List"}

    def test_parameter_is_a_definition(self):
        flow = flow_of(
            """
            def f(x):
                return x
            """
        )
        (use,) = name_loads(flow, "x")
        kinds = {d.kind for d in flow.definitions_for(use)}
        assert kinds == {"param"}

    def test_module_level_falls_back_to_module_defs(self):
        flow = flow_of(
            """
            TABLE = {"a": 1}

            def f():
                return TABLE
            """
        )
        (use,) = name_loads(flow, "TABLE")
        defs = flow.definitions_for(use)
        assert len(defs) == 1
        assert isinstance(next(iter(defs)).value, ast.Dict)

    def test_try_except_is_pessimistic(self):
        flow = flow_of(
            """
            def f():
                x = {1}
                try:
                    x = [1]
                except ValueError:
                    pass
                return x
            """
        )
        (use,) = name_loads(flow, "x")
        # The body may or may not have completed before the handler ran.
        assert len(flow.definitions_for(use)) == 2


class TestModuleTopLevel:
    def test_toplevel_calls_skip_function_bodies_and_main_guard(self):
        flow = flow_of(
            """
            import threading

            lock = threading.Lock()

            def f():
                inner_only()

            if __name__ == "__main__":
                main_only()
            """
        )
        callees = {
            node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id
            for node in flow.module_toplevel_calls()
        }
        assert "Lock" in callees
        assert "inner_only" not in callees
        assert "main_only" not in callees

    def test_toplevel_calls_descend_into_try_and_if(self):
        flow = flow_of(
            """
            try:
                setup()
            except ImportError:
                fallback()

            if FLAG:
                conditional()
            """
        )
        callees = {node.func.id for node in flow.module_toplevel_calls()}
        assert callees == {"setup", "fallback", "conditional"}

    def test_uses_of_module_definition(self):
        flow = flow_of(
            """
            REGISTRY = {}

            def read():
                return REGISTRY

            def other():
                return []
            """
        )
        (definition,) = flow.module_defs["REGISTRY"]
        uses = flow.uses_of(definition)
        assert len(uses) == 1


class TestComprehensionScopes:
    """Comprehensions are their own scope (PEP 709 notwithstanding): targets
    must shadow outer bindings, except inside the first generator's iterable,
    which Python evaluates in the enclosing scope."""

    def test_target_shadows_module_binding(self):
        flow = flow_of(
            """
            x = {1}
            ys = [x for x in rows]
            """
        )
        elt_use = name_loads(flow, "x")[0]
        (definition,) = flow.definitions_for(elt_use)
        assert isinstance(definition, Definition)
        assert definition.kind == "comp"

    def test_first_iterable_sees_the_enclosing_scope(self):
        flow = flow_of(
            """
            x = [1]
            ys = [x for x in x]
            """
        )
        elt_use, iter_use = name_loads(flow, "x")
        assert {d.kind for d in flow.definitions_for(elt_use)} == {"comp"}
        (outer,) = flow.definitions_for(iter_use)
        assert outer.kind == "assign"
        assert isinstance(outer.value, ast.List)

    def test_second_iterable_is_shadowed(self):
        flow = flow_of(
            """
            x = [[1]]
            ys = [y for x in rows for y in x]
            """
        )
        (iter_use,) = name_loads(flow, "x")
        assert {d.kind for d in flow.definitions_for(iter_use)} == {"comp"}

    def test_nested_comprehension_resolves_to_outer_target(self):
        flow = flow_of(
            """
            row = {1}
            grid = [[cell for cell in row] for row in rows]
            """
        )
        # The inner comprehension's first iterable reads the *outer*
        # comprehension's target, not the module-level binding.
        (use,) = name_loads(flow, "row")
        assert {d.kind for d in flow.definitions_for(use)} == {"comp"}


class TestLambdaScopes:
    def test_lambda_parameter_shadows_module_binding(self):
        flow = flow_of(
            """
            work = {1}
            f = lambda work: work
            """
        )
        (use,) = name_loads(flow, "work")
        (definition,) = flow.definitions_for(use)
        assert definition.kind == "param"

    def test_lambda_free_variable_reaches_enclosing_function(self):
        flow = flow_of(
            """
            def f():
                base = {1}
                return lambda y: base
            """
        )
        (use,) = name_loads(flow, "base")
        (definition,) = flow.definitions_for(use)
        assert definition.kind == "assign"
        assert isinstance(definition.value, ast.Set)


class TestWalrusBindings:
    def test_walrus_in_condition_reaches_the_body(self):
        flow = flow_of(
            """
            def f(rows):
                if (n := len(rows)) > 3:
                    return n
            """
        )
        (use,) = name_loads(flow, "n")
        (definition,) = flow.definitions_for(use)
        assert definition.kind == "assign"
        assert isinstance(definition.value, ast.Call)

    def test_walrus_inside_comprehension_binds_enclosing_scope(self):
        flow = flow_of(
            """
            def f(rows):
                totals = [total := len(row) for row in rows]
                return total
            """
        )
        use = name_loads(flow, "total")[-1]  # the read after the listcomp
        defs = flow.definitions_for(use)
        assert {d.kind for d in defs} == {"assign"}

    def test_walrus_inside_nested_def_stays_local(self):
        flow = flow_of(
            """
            def f(rows):
                def g():
                    return (m := 1)
                return m
            """
        )
        use = name_loads(flow, "m")[-1]  # the read in f, after g's body
        assert flow.definitions_for(use) == set()


class TestNestedDefScopes:
    def test_inner_parameter_shadows_outer_binding(self):
        flow = flow_of(
            """
            def outer():
                item = {1}

                def inner(item):
                    return item
            """
        )
        (use,) = name_loads(flow, "item")
        assert {d.kind for d in flow.definitions_for(use)} == {"param"}

    def test_inner_free_variable_reaches_outer_assignment(self):
        flow = flow_of(
            """
            def outer():
                acc = []

                def inner(row):
                    return acc
            """
        )
        (use,) = name_loads(flow, "acc")
        (definition,) = flow.definitions_for(use)
        assert definition.kind == "assign"
        assert isinstance(definition.value, ast.List)

    def test_graph_for_builds_one_graph_per_scope(self):
        flow = flow_of(
            """
            def outer():
                x = 1

                def inner():
                    x = 2
                    return x
                return x
            """
        )
        outer_graph = flow.graph_for(func_named(flow, "outer"))
        inner_graph = flow.graph_for(func_named(flow, "inner"))
        assert isinstance(outer_graph, FlowGraph)
        assert isinstance(inner_graph, FlowGraph)
        assert outer_graph is not inner_graph
        # ast.walk is breadth-first: outer's shallower read comes first.
        outer_use, inner_use = name_loads(flow, "x")
        inner_value = next(iter(flow.definitions_for(inner_use))).value
        outer_value = next(iter(flow.definitions_for(outer_use))).value
        assert ast.literal_eval(inner_value) == 2
        assert ast.literal_eval(outer_value) == 1
