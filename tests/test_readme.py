"""The README's "Library use" example runs and prints what its comments
say."""

import ast
import pathlib

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _library_use_block():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_runs():
    source = _library_use_block()
    namespace, values = {}, {}
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        if isinstance(stmt, ast.Expr):
            values[code] = eval(code, namespace)
        else:
            exec(code, namespace)
    assert values.pop("pi_injectivity_test(sp, rk)") is True
    assert values.pop("v_member(f, chi, 0)") is True
    assert values.pop("compare_v0(f, 1, 1).equal") is True
    assert values == {}
    assert repr(namespace["chi"]) == "1/4*x*dx + 1/4*y*dy + 1/4*z*dz"
    assert "# 1/4*x*dx + 1/4*y*dy + 1/4*z*dz\n" in source
