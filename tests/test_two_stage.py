"""The CP, ICP, Venn, combined-classifier, CLI and incremental-absorption
suites a second time, with every kNN batch query of two or more rows on the
two-stage path, the self-query of every kNN fit from nothing included.

Every test bag of those suites is far below ``ncm._TWO_STAGE_ENTRIES``, so
without this module the two-stage query would meet only the property tests
of ``test_ncm.py``.  Each test (and fixture) of the six modules is
collected here again, its name prefixed with its module's, and the autouse
fixture sets the crossover to 0 for it.
"""

import pytest

import conformal.ncm as ncm
import test_cli
import test_cp
import test_icp
import test_incremental
import test_meta
import test_venn


@pytest.fixture(autouse=True)
def two_stage_everywhere(monkeypatch):
    monkeypatch.setattr(ncm, "_TWO_STAGE_ENTRIES", 0)


for _prefix, _module in (("Cp", test_cp), ("Icp", test_icp), ("Venn", test_venn),
                         ("Meta", test_meta), ("Cli", test_cli), ("Incremental", test_incremental)):
    for _name, _obj in vars(_module).items():
        if _name.startswith("Test") and isinstance(_obj, type):
            globals()[f"Test{_prefix}{_name[4:]}"] = _obj
        elif _name.startswith("test_") and callable(_obj):
            globals()[f"test_{_prefix.lower()}_{_name[5:]}"] = _obj
        elif isinstance(_obj, type(two_stage_everywhere)):
            globals()[_name] = _obj
