"""``np``: numpy, imported on first attribute access.

The closed-form commands (the key rates and their sweeps) need only the
standard library, and importing numpy is most of their start-up, so the
Monte Carlo modules bind numpy through this proxy and the import runs only
when a simulation first uses it.
"""


class _LazyNumpy:
    def __getattr__(self, name: str):
        import numpy  # the import lock makes a first use from two threads safe

        value = getattr(numpy, name)
        setattr(self, name, value)  # later lookups bypass __getattr__
        return value


np = _LazyNumpy()
