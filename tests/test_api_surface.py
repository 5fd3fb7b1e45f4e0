"""Lint for the public API surface.

``repro.api`` is the stable contract; ``import repro`` re-exports a
convenience subset (some of it lazily, through PEP-562 ``__getattr__``).
These tests keep the three views consistent so a new export cannot land
in one place and silently miss the others:

* ``repro.api.__all__`` is sorted and duplicate-free, and every name in
  it actually resolves;
* everything ``repro.__all__`` advertises resolves too — including the
  lazy names, which this exercises through the ``__getattr__`` hook;
* the convenience surface is a subset of the stable contract;
* the serve surface (schema types, ``ServeOptions``, ``serve_app``) is
  reachable through both.
"""

import pytest

import repro
import repro.api as api

#: the service surface the redesign added; must stay in both views
SERVE_NAMES = ("ServeOptions", "Service", "serve_app")
SERVE_SCHEMA_NAMES = (
    "CompileRequest",
    "CompileResponse",
    "ExplainRequest",
    "ExplainResponse",
    "RunRequest",
    "RunResponse",
    "compile_options_from_json",
    "sim_options_from_json",
)


def test_api_all_is_sorted_and_unique():
    assert api.__all__ == sorted(api.__all__), (
        "repro.api.__all__ must be kept sorted; expected order:\n"
        + "\n".join(sorted(api.__all__))
    )
    assert len(api.__all__) == len(set(api.__all__))


def test_api_all_resolves():
    for name in api.__all__:
        assert getattr(api, name, None) is not None, name


def test_repro_all_resolves_including_lazy_exports():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name
    # every lazy name is advertised, and the hook resolves it to the
    # same object the source module defines
    import importlib

    for name, module_name in repro._LAZY_EXPORTS.items():
        assert name in repro.__all__, name
        module = importlib.import_module(module_name)
        assert getattr(repro, name) is getattr(module, name)


def test_repro_all_is_subset_of_api_contract():
    convenience = set(repro.__all__) - {"__version__"}
    missing = convenience - set(api.__all__)
    assert not missing, (
        f"names exported from `import repro` but absent from the stable "
        f"contract repro.api.__all__: {sorted(missing)}"
    )


def test_serve_surface_exported_everywhere():
    for name in SERVE_NAMES:
        assert name in repro.__all__, name
        assert name in api.__all__, name
        assert getattr(repro, name) is getattr(api, name)
    for name in SERVE_SCHEMA_NAMES:
        assert name in api.__all__, name
        import repro.serve as serve

        assert getattr(api, name) is getattr(serve, name)


def test_unknown_attribute_still_raises():
    try:
        repro.definitely_not_an_export
    except AttributeError as exc:
        assert "definitely_not_an_export" in str(exc)
    else:
        raise AssertionError("expected AttributeError")


def test_request_error_in_taxonomy_everywhere():
    from repro.errors import RequestError

    assert repro.RequestError is RequestError
    assert api.RequestError is RequestError
    assert issubclass(RequestError, repro.MarionError)


def test_installed_metadata_carries_the_package_version():
    # pyproject.toml reads the version from repro.__version__, so an
    # installed copy's metadata cannot drift from the code; a checkout
    # run from its sources without an install has no metadata to check
    from importlib import metadata

    try:
        installed = metadata.version("repro")
    except metadata.PackageNotFoundError:
        pytest.skip("repro is not installed")
    assert installed == repro.__version__
