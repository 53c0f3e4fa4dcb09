"""The name of the simulator's kernel backend.

The byte-plane kernels run on the python standard library alone, each
in the module that uses it.  :data:`BACKEND` stays because the cell
benchmark records it with its measurements.
"""

#: the kernel implementation's name
BACKEND = "python"
