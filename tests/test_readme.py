"""README states what the simulator does and guarantees, and the module
docstrings state how: these tests hold README's config table to the
declared fields, its examples to the parsers, and keep the package's
private names out of it."""
import pathlib
import re
import shlex

import yaml

from mobman import cli, config
from mobman.config import ScenarioConfig, parse_config

README = pathlib.Path(__file__).parents[1].joinpath("README.md").read_text(
    encoding="utf-8")
TABLE_HEADER = "| key | default | unit | range |"


def _table() -> dict:
    """README's config table as key -> (default, unit, range) cells, in
    order, with the code quotes taken off; a key listed twice fails."""
    lines = README.splitlines()
    rows = {}
    for line in lines[lines.index(TABLE_HEADER) + 2:]:
        if not line.startswith("|"):
            break
        key, *cells = (c.strip().replace("`", "")
                       for c in line.strip("|").split("|"))
        assert key not in rows, key
        rows[key] = cells
    return rows


def _declared() -> dict:
    """key -> (the values of that key in ScenarioConfig(), its rule), in
    declaration order, each fire's key as fires[i].<field>."""
    fields = {}
    for name, value, rule in config._leaves(ScenarioConfig()):
        values, _ = fields.setdefault(re.sub(r"\[\d+\]", "[i]", name),
                                      ([], rule))
        values.append(value)
    return fields


def _accepts(rule, x) -> bool:
    """Whether rule passes x, handed a vector of x when it takes one."""
    problems = []
    rule(x, "key", problems)
    size = problems and re.fullmatch(r"key: expected (\d+) numbers",
                                     problems[0])
    if size:
        problems = []
        rule([x] * int(size[1]), "key", problems)
    return not problems


def test_config_table_lists_every_field_with_its_default_and_range():
    """One row per leaf of ScenarioConfig, in declaration order: the
    default as YAML (the stock fires' values joined by ;) and the declared
    range, prefixed by 0 or where the rule also takes 0 and an integer in
    where it takes only integers; a rule with no range is named by what it
    expects."""
    table, declared = _table(), _declared()
    assert list(table) == list(declared)
    for key, (values, rule) in declared.items():
        default, unit, accepted = table[key]
        assert [yaml.safe_load(v) for v in default.split(";")] == values, key
        assert unit, key
        if not hasattr(rule, "range"):
            problems = []
            rule(None, key, problems)
            assert problems[0].split(": expected ", 1)[1] in accepted, key
            continue
        lo, hi = rule.range
        shape = re.fullmatch(r"(0 or )?(an integer in )?\[(\S+), (\S+)\]",
                             accepted)
        assert shape, key
        assert (float(shape[3]), float(shape[4])) == (lo, hi), key
        assert bool(shape[1]) == (lo > 0 and _accepts(rule, 0)), key
        assert bool(shape[2]) == (not _accepts(rule, float(lo))), key


def test_readme_names_no_private_identifier():
    """README describes the public surface only: no name with a leading
    underscore, alone or after a dot, in prose or in code."""
    assert re.findall(r"(?:^|[\s`.(\[\"'])(_\w+)", README, re.M) == []


def _blocks(language: str) -> list:
    return re.findall(r"^```%s\n(.*?)^```" % language, README, re.M | re.S)


def test_readme_yaml_scenarios_parse():
    blocks = _blocks("yaml")
    assert blocks
    for block in blocks:
        parse_config(yaml.safe_load(block))


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    """Each python example runs as written, in a scratch directory so the
    files it exports land there."""
    blocks = _blocks("python")
    assert blocks
    monkeypatch.chdir(tmp_path)
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_readme_cli_lines_parse():
    lines = [line for block in _blocks("sh") for line in block.splitlines()
             if line.startswith("mobman ")]
    assert lines
    parser = cli.build_parser()
    for line in lines:
        assert parser.parse_args(shlex.split(line)[1:]).func, line
