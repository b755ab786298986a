"""Unit tests for the recursive-descent parser."""

import pytest

from repro.errors import JavaSyntaxError
from repro.java import ast, parse_expression, parse_submission
from repro.java.parser import MAX_NESTING


def _height(node: ast.Node) -> int:
    """Tree height, computed without recursion."""
    best, stack = 0, [(node, 1)]
    while stack:
        current, depth = stack.pop()
        best = max(best, depth)
        stack.extend((child, depth + 1) for child in current.children())
    return best


class TestExpressions:
    def test_literal_int(self):
        expr = parse_expression("42")
        assert isinstance(expr, ast.Literal)
        assert expr.value == 42 and expr.kind == "int"

    def test_negative_literal_folds(self):
        expr = parse_expression("-3")
        assert isinstance(expr, ast.Literal)
        assert expr.value == -3

    def test_name(self):
        assert parse_expression("odd") == ast.Name("odd")

    def test_binary_precedence_mul_over_add(self):
        expr = parse_expression("a + b * c")
        assert isinstance(expr, ast.Binary) and expr.operator == "+"
        assert isinstance(expr.right, ast.Binary)
        assert expr.right.operator == "*"

    def test_binary_left_associativity(self):
        expr = parse_expression("a - b - c")
        assert expr.operator == "-"
        assert isinstance(expr.left, ast.Binary)
        assert expr.left.operator == "-"

    def test_parenthesized_grouping(self):
        expr = parse_expression("(a + b) * c")
        assert expr.operator == "*"
        assert isinstance(expr.left, ast.Binary)
        assert expr.left.operator == "+"

    def test_relational_and_equality_layers(self):
        expr = parse_expression("i % 2 == 1")
        assert expr.operator == "=="
        assert expr.left.operator == "%"

    def test_logical_layers(self):
        expr = parse_expression("a && b || c")
        assert expr.operator == "||"
        assert expr.left.operator == "&&"

    def test_ternary(self):
        expr = parse_expression("a ? b : c")
        assert isinstance(expr, ast.Ternary)

    def test_nested_ternary_right_associative(self):
        expr = parse_expression("a ? b : c ? d : e")
        assert isinstance(expr.if_false, ast.Ternary)

    def test_assignment_expression(self):
        expr = parse_expression("x = y + 1")
        assert isinstance(expr, ast.Assignment)
        assert expr.operator == "="

    def test_compound_assignment(self):
        expr = parse_expression("odd += a[i]")
        assert isinstance(expr, ast.Assignment)
        assert expr.operator == "+="
        assert isinstance(expr.value, ast.ArrayAccess)

    def test_assignment_right_associative(self):
        expr = parse_expression("a = b = c")
        assert isinstance(expr.value, ast.Assignment)

    def test_field_access(self):
        expr = parse_expression("a.length")
        assert isinstance(expr, ast.FieldAccess)
        assert expr.name == "length"

    def test_chained_field_access(self):
        expr = parse_expression("System.out")
        assert isinstance(expr, ast.FieldAccess)
        assert expr.target == ast.Name("System")

    def test_method_call_unqualified(self):
        expr = parse_expression("fact(n + 1)")
        assert isinstance(expr, ast.MethodCall)
        assert expr.target is None and expr.name == "fact"
        assert len(expr.arguments) == 1

    def test_method_call_qualified(self):
        expr = parse_expression("System.out.println(x)")
        assert isinstance(expr, ast.MethodCall)
        assert expr.name == "println"
        assert isinstance(expr.target, ast.FieldAccess)

    def test_method_call_chained(self):
        expr = parse_expression("s.trim().length()")
        assert expr.name == "length"
        assert expr.target.name == "trim"

    def test_array_access_nested(self):
        expr = parse_expression("m[i][j]")
        assert isinstance(expr, ast.ArrayAccess)
        assert isinstance(expr.array, ast.ArrayAccess)

    def test_prefix_and_postfix_increment(self):
        post = parse_expression("i++")
        pre = parse_expression("++i")
        assert isinstance(post, ast.Unary) and not post.prefix
        assert isinstance(pre, ast.Unary) and pre.prefix

    def test_unary_not(self):
        expr = parse_expression("!(a && b)")
        assert isinstance(expr, ast.Unary)
        assert expr.operator == "!"

    def test_cast(self):
        expr = parse_expression("(int) Math.pow(x, i)")
        assert isinstance(expr, ast.Cast)
        assert expr.type.name == "int"

    def test_parenthesized_name_is_not_cast(self):
        expr = parse_expression("(x) + 1")
        assert isinstance(expr, ast.Binary)

    def test_object_creation(self):
        expr = parse_expression('new Scanner(new File("a.txt"))')
        assert isinstance(expr, ast.ObjectCreation)
        assert expr.type.name == "Scanner"
        assert isinstance(expr.arguments[0], ast.ObjectCreation)

    def test_array_creation_sized(self):
        expr = parse_expression("new int[n + 1]")
        assert isinstance(expr, ast.ArrayCreation)
        assert expr.type.dimensions == 1

    def test_array_creation_with_initializer(self):
        expr = parse_expression("new int[]{1, 2, 3}")
        assert expr.initializer is not None
        assert len(expr.initializer.elements) == 3

    def test_string_concatenation(self):
        expr = parse_expression('"O: " + x + ", E: " + y')
        assert isinstance(expr, ast.Binary)

    def test_trailing_tokens_raise(self):
        with pytest.raises(JavaSyntaxError):
            parse_expression("a + b c")

    def test_unbalanced_paren_raises(self):
        with pytest.raises(JavaSyntaxError):
            parse_expression("(a + b")


class TestStatements:
    def parse_body(self, body):
        unit = parse_submission("void f() {\n" + body + "\n}")
        return unit.methods()[0].body.statements

    def test_local_declaration_single(self):
        (stmt,) = self.parse_body("int x = 0;")
        assert isinstance(stmt, ast.LocalVarDecl)
        assert stmt.declarators[0].name == "x"

    def test_local_declaration_multiple(self):
        (stmt,) = self.parse_body("int o = 0, e = 1;")
        assert [d.name for d in stmt.declarators] == ["o", "e"]

    def test_declaration_without_initializer(self):
        (stmt,) = self.parse_body("int x;")
        assert stmt.declarators[0].initializer is None

    def test_array_declaration_suffix_brackets(self):
        (stmt,) = self.parse_body("int x[] = new int[3];")
        assert stmt.declarators[0].extra_dimensions == 1

    def test_string_declaration(self):
        (stmt,) = self.parse_body('String e = "";')
        assert stmt.type.name == "String"

    def test_if_without_else(self):
        (stmt,) = self.parse_body("if (x > 0) y = 1;")
        assert isinstance(stmt, ast.If)
        assert stmt.else_branch is None

    def test_if_with_else(self):
        (stmt,) = self.parse_body("if (x > 0) y = 1; else y = 2;")
        assert stmt.else_branch is not None

    def test_dangling_else_binds_to_nearest_if(self):
        (stmt,) = self.parse_body("if (a) if (b) x = 1; else x = 2;")
        assert stmt.else_branch is None
        assert stmt.then_branch.else_branch is not None

    def test_while(self):
        (stmt,) = self.parse_body("while (i < n) i++;")
        assert isinstance(stmt, ast.While)

    def test_do_while(self):
        (stmt,) = self.parse_body("do { i++; } while (i < n);")
        assert isinstance(stmt, ast.DoWhile)

    def test_for_classic(self):
        (stmt,) = self.parse_body("for (int i = 0; i < n; i++) s += i;")
        assert isinstance(stmt, ast.For)
        assert isinstance(stmt.init[0], ast.LocalVarDecl)
        assert len(stmt.update) == 1

    def test_for_with_empty_sections(self):
        (stmt,) = self.parse_body("for (;;) break;")
        assert stmt.init == [] and stmt.condition is None
        assert stmt.update == []

    def test_for_with_multiple_updates(self):
        (stmt,) = self.parse_body("for (i = 0; i < n; i++, j--) x = 1;")
        assert len(stmt.update) == 2

    def test_for_each(self):
        (stmt,) = self.parse_body("for (int v : a) s += v;")
        assert isinstance(stmt, ast.ForEach)
        assert stmt.name == "v"

    def test_break_and_continue(self):
        stmts = self.parse_body("while (true) { break; }\n"
                                "while (true) { continue; }")
        assert isinstance(stmts[0].body.statements[0], ast.Break)
        assert isinstance(stmts[1].body.statements[0], ast.Continue)

    def test_return_void_and_value(self):
        stmts = self.parse_body("if (x > 0) return; return;")
        assert stmts[0].then_branch.value is None
        unit = parse_submission("int g() { return x + y; }")
        assert unit.methods()[0].body.statements[0].value is not None

    def test_switch(self):
        (stmt,) = self.parse_body(
            "switch (x) { case 1: y = 1; break; default: y = 0; }"
        )
        assert isinstance(stmt, ast.Switch)
        assert len(stmt.cases) == 2
        assert stmt.cases[1].labels == [None]

    def test_empty_statement(self):
        (stmt,) = self.parse_body(";")
        assert isinstance(stmt, ast.EmptyStatement)

    def test_nested_blocks(self):
        (stmt,) = self.parse_body("{ { int x = 1; } }")
        assert isinstance(stmt, ast.Block)

    def test_missing_semicolon_raises(self):
        with pytest.raises(JavaSyntaxError):
            self.parse_body("int x = 0")


class TestDeclarations:
    def test_bare_method(self):
        unit = parse_submission("void f(int x) { }")
        method = unit.methods()[0]
        assert method.name == "f"
        assert method.parameters[0].type.name == "int"

    def test_array_parameter(self):
        unit = parse_submission("void f(int[] a) { }")
        assert unit.methods()[0].parameters[0].type.dimensions == 1

    def test_array_parameter_suffix_style(self):
        unit = parse_submission("void f(int a[]) { }")
        assert unit.methods()[0].parameters[0].type.dimensions == 1

    def test_multiple_bare_methods(self):
        unit = parse_submission("int f() { return 1; } int g() { return 2; }")
        assert [m.name for m in unit.methods()] == ["f", "g"]

    def test_class_with_methods_and_fields(self):
        unit = parse_submission("""
            public class Solution {
                private int count = 0;
                public void run() { count++; }
                int helper(int x) { return x; }
            }
        """)
        cls = unit.classes[0]
        assert cls.name == "Solution"
        assert len(cls.methods) == 2
        assert cls.fields[0].declarators[0].name == "count"

    def test_imports(self):
        unit = parse_submission("""
            import java.util.Scanner;
            import java.io.*;
            void f() { }
        """)
        assert unit.imports == ["java.util.Scanner", "java.io.*"]

    def test_throws_clause(self):
        unit = parse_submission("void f() throws Exception { }")
        assert unit.methods()[0].throws == ["Exception"]

    def test_method_lookup_by_name(self):
        unit = parse_submission("void f() { } void g() { }")
        assert unit.method("g").name == "g"
        with pytest.raises(KeyError):
            unit.method("missing")

    def test_method_signature(self):
        unit = parse_submission("void assignment1(int[] a) { }")
        assert unit.methods()[0].signature() == "void assignment1(int[] a)"

    def test_modifiers(self):
        unit = parse_submission("public static void main(String[] args) { }")
        assert unit.methods()[0].modifiers == ["public", "static"]

    def test_paper_figure_2a_parses(self):
        from repro.kb.assignments.assignment1 import FIGURE_2A
        unit = parse_submission(FIGURE_2A)
        assert unit.methods()[0].name == "assignment1"

    def test_garbage_raises_with_position(self):
        with pytest.raises(JavaSyntaxError) as excinfo:
            parse_submission("void f() { int x = ; }")
        assert excinfo.value.line >= 1


class TestNestingBudget:
    # the hostile inputs themselves are graded in tests/core/test_pipeline.py

    def test_ordinary_depths_parse(self):
        chain = "int f(int x) { return " + " + ".join(["x"] * 40) + "; }"
        ifs = "void f(int x) { " + "if (x > 0) { " * 25 + "}" * 25 + " }"
        parens = "int f() { return " + "(" * 30 + "1" + ")" * 30 + "; }"
        for source in (chain, ifs, parens):
            parse_submission(source)

    def test_budget_is_spent_per_statement(self):
        # chains in sibling statements and class fields never add up
        statements = "int x = 0; " + "x = x + 1 + 2 + 3 + 4 + 5; " * 100
        parse_submission("int f() { " + statements + "return x; }")
        fields = "int y = 1 + 2 + 3 + 4 + 5; " * 100
        parse_submission("class C { " + fields + "}")

    def test_admitted_trees_stay_below_twice_the_budget(self):
        # the tallest shapes the budget admits: prefix operators around a
        # chain, then a chain over that, and leftward postfix selectors
        shapes = [
            lambda n: "!" * n + "(x + x > 0)" + " && b" * n,
            lambda n: "(" + " + ".join(["x"] * n) + ") > 0" + " && b" * n,
            lambda n: "a" + "[0]" * n + " > 0",
        ]
        for shape in shapes:
            tallest = 0
            for n in range(1, 4 * MAX_NESTING):
                source = f"boolean f(int x, boolean b) {{ return {shape(n)}; }}"
                try:
                    unit = parse_submission(source)
                except JavaSyntaxError:
                    break
                tallest = max(tallest, _height(unit))
            else:
                pytest.fail("the budget never stopped the shape")
            assert 0 < tallest < 2 * MAX_NESTING + 8


class TestAstHelpers:
    def test_walk_visits_all_nodes(self):
        unit = parse_submission("void f() { int x = 1 + 2; }")
        kinds = [type(n).__name__ for n in ast.walk(unit)]
        assert "Binary" in kinds and "LocalVarDecl" in kinds

    def test_children_of_expression(self):
        expr = parse_expression("a + b")
        children = list(expr.children())
        assert children == [ast.Name("a"), ast.Name("b")]
