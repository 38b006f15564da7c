"""The package namespace."""

import types

import srskit


def test_star_import_binds_the_public_attributes_that_are_not_modules():
    namespace = {}
    exec("from srskit import *", namespace)
    del namespace["__builtins__"]
    public = {name for name, value in vars(srskit).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert set(namespace) == public
    assert "load_csv" in namespace and "SrskitError" in namespace
    # srskit.io is a submodule; bound, it would shadow the standard io
    assert isinstance(srskit.io, types.ModuleType) and "io" not in namespace
