"""One memo store: every process-wide table is registered in `store`, and
`store.clear()` empties them all without changing any output."""

import contextlib
import functools
import importlib
import io
import pkgutil
import subprocess

import polyqsym
from polyqsym import lyndon, ncalg, store
from polyqsym.cli import main
from polyqsym.ncalg import NCPoly
from conftest import cli_process


def _modules():
    return [polyqsym] + [importlib.import_module("polyqsym." + info.name)
                         for info in pkgutil.iter_modules(polyqsym.__path__)]


def test_every_table_is_registered():
    tables = [obj for module in _modules() for obj in vars(module).values()
              if isinstance(obj, functools._lru_cache_wrapper)]
    assert tables
    assert all(t in store.TABLES for t in tables)
    assert [(t.__module__, t.__name__) for t in store.TABLES] == [
        ("polyqsym.qsym", "quasi_shuffle"), ("polyqsym.lyndon", "_shuffle")]


CLI_CALLS = (["fpoly", "prod(cube(2),simplex(2))"], ["frp", "cell24"],
             ["bb-matrix", "5", "--json"])


def _outputs():
    out = []
    for argv in CLI_CALLS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(argv) == 0
        out.append(buf.getvalue())
    word = NCPoly.word((3, 1, 2, 1, 1)) + 2 * NCPoly.word((1, 1, 4))
    return out, repr(ncalg.normal_form(word)), lyndon.shuffle((1, 2), (1, 3))


def test_clear_empties_every_memo(empty_store):
    first = _outputs()
    assert store.types and store.memo
    assert all(table.cache_info().currsize for table in store.TABLES)
    store.clear()
    assert not store.types and not store.memo
    assert all(table.cache_info().currsize == 0 for table in store.TABLES)
    again = _outputs()
    assert again == first
    assert again[0] == [
        cli_process(argv, stdout=subprocess.PIPE, check=True, text=True).stdout
        for argv in CLI_CALLS]
