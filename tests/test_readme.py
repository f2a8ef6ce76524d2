import math
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library example\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, f"{README}:library-example", "exec"), {"__name__": "readme_example"})
    # the first line printed is the twin ensemble's mutual information, 2 ln(4/3)
    first = capsys.readouterr().out.splitlines()[0]
    assert abs(float(first) - 2 * math.log(4 / 3)) < 1e-12
