"""The reachability ledger's check (tests/reach.py) on synthetic records."""

import textwrap

from tests.reach import ci_steps, inventory, problems, read_ledger

FUNCTIONS = {"a.py::used": 4, "a.py::spare": 9, "b.py::Kept.method": 3}


def test_clean_record_and_ledger_pass():
    rows = {"a.py::spare": "keep: fault recovery", "gone.py::f": "delete"}
    assert problems(FUNCTIONS, {"a.py::used", "b.py::Kept.method"}, rows) == []


def test_unreached_function_without_a_row_is_flagged():
    found = problems(FUNCTIONS, {"a.py::used"}, {"a.py::spare": "keep: x"})
    assert found == ["unreached and not in the ledger: b.py::Kept.method "
                     "(3 lines)"]


def test_row_for_a_missing_function_is_flagged():
    rows = {"a.py::spare": "keep: x", "a.py::renamed": "keep: y"}
    found = problems(FUNCTIONS, {"a.py::used", "b.py::Kept.method"}, rows)
    assert found == ["row names a function that does not exist: a.py::renamed"]


def test_delete_row_whose_function_still_exists_is_flagged():
    found = problems(FUNCTIONS, {"a.py::used", "b.py::Kept.method"},
                     {"a.py::spare": "delete"})
    assert found == ["marked delete but still defined: a.py::spare"]


def test_keep_row_whose_function_is_reached_is_accepted():
    reached = {"a.py::used", "a.py::spare", "b.py::Kept.method"}
    assert problems(FUNCTIONS, reached, {"a.py::spare": "keep: timing"}) == []


def test_consumer_row_must_be_reached_and_verdicts_are_checked():
    rows = {"a.py::spare": "consumer", "b.py::Kept.method": "maybe"}
    found = problems(FUNCTIONS, {"a.py::used"}, rows)
    assert found[0] == ("marked consumer but no consumer reached it: "
                        "a.py::spare")
    assert "b.py::Kept.method has 'maybe'" in found[1]


def test_ledger_table_rows_are_read():
    text = textwrap.dedent("""\
        | function | lines | verdict |
        |---|---|---|
        | `a.py::spare` | 9 | keep: the fissile workload |
        | `gone.py::f` | 12 | delete |
        """)
    assert read_ledger(text) == {"a.py::spare": "keep: the fissile workload",
                                 "gone.py::f": "delete"}


def test_inventory_names_methods_by_qualname(tmp_path):
    (tmp_path / "m.py").write_text(textwrap.dedent("""\
        def top():
            def inner():
                pass

        class C:
            def method(self):
                return 1
        """))
    assert inventory(tmp_path) == {"m.py::top": 3, "m.py::C.method": 2}


def test_ci_steps_keep_consumers_and_drop_suites():
    text = textwrap.dedent("""\
        steps:
          - name: Install
            run: |
              python -m pip install numpy
          - name: Suite
            run: python -m pytest tests -q
          - name: Figures
            run: python -m pytest benchmarks -q
          - name: Smoke
            run: |
              python -m repro run --nx 8
              python -m repro report t.json
            env:
              PYTHONPATH: src
        """)
    assert ci_steps(text) == [
        "python -m pytest benchmarks -q",
        "python -m repro run --nx 8\npython -m repro report t.json",
    ]
