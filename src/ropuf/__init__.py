"""Behavioral simulator and evaluation toolkit for waveform-sampling
ring-oscillator PUFs.

`import ropuf` loads no submodule (and so no numpy); import each one by
name, as `from ropuf import chipsim` or `import ropuf.metrics`.
"""
__version__ = "0.1.0"
