"""Module bindings that defer the cost of loading a module to its first
use.

Importing ``scipy.integrate`` costs more than the rest of the package's
import together, most of it in modules (``scipy.special``,
``scipy.linalg``, ``scipy.optimize``) that the periodic search never
calls.  The package uses scipy for ``quad`` alone: :mod:`weight`, the
module of ``piecewise_quad``, binds it at its top as
``_sint = lazy_module("scipy.integrate")``, so the dependency stays
declared where it is used while its code runs only when ``quad`` is
first read.
"""

from __future__ import annotations

import importlib.util
import sys


def lazy_module(name):
    """The module ``name``, whose code runs on first attribute access.

    A module that ``sys.modules`` already holds is returned as it is.
    Otherwise the module is found, bound in ``sys.modules`` and handed
    to the standard library's :class:`importlib.util.LazyLoader`, which
    executes it when an attribute of it (or a submodule) is first read.
    Its parent packages are imported at once; ``scipy`` itself loads no
    submodule.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module
