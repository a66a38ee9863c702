"""Command-line interface: ``repro.cli.main`` (the ``crowdweb`` command).

The package does not import ``.main`` so that ``python -m repro.cli.main``
runs the module once, as ``__main__``, without a ``RuntimeWarning``.
"""
