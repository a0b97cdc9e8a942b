import types

import quantile_kaczmarz


def test_all_holds_no_module():
    namespace = {}
    exec("from quantile_kaczmarz import *", namespace)
    modules = [name for name in quantile_kaczmarz.__all__
               if isinstance(namespace[name], types.ModuleType)]
    assert modules == []
