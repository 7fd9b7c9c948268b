"""Unit tests for the ASCII table renderer."""

from repro.workload.tables import format_cell, render_table


def test_format_cell_types():
    assert format_cell(True) == "yes"
    assert format_cell(False) == "no"
    assert format_cell(3) == "3"
    assert format_cell(3.14159) == "3.14"
    assert format_cell(12.345) == "12.3"
    assert format_cell(123456.0) == "123,456"
    assert format_cell(float("nan")) == "-"
    assert format_cell("text") == "text"


def test_render_table_alignment():
    table = render_table(
        ["name", "value"],
        [["alpha", 1], ["b", 22222]],
        title="demo",
    )
    lines = table.splitlines()
    assert lines[0] == "demo"
    widths = {len(line) for line in lines[1:]}
    assert len(widths) == 1, "all rows must be equal width"
    assert "| alpha | 1     |" in table
    assert "| b     | 22222 |" in table


def test_render_table_no_title():
    table = render_table(["h"], [["x"]])
    assert table.startswith("+")
