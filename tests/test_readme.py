"""README's "Library example" block runs as written and gives the values
its comments state."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    section = README.read_text(encoding="utf-8").split(
        "## Library example", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example():
    # run the block statement by statement, keeping the value of each
    # expression statement, so nothing is computed twice
    ns, values = {}, []
    for stmt in ast.parse(_library_example()).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), str(README), "eval")
            values.append(eval(code, ns))
        else:
            exec(compile(ast.Module([stmt], []), str(README), "exec"), ns)
    zeta1, one_k, all_ks = values
    assert zeta1 == -4
    assert (one_k.res, one_k.prec) == (all_ks[1].res, all_ks[1].prec)
