"""The VPP Fortran runtime layer: data distributions, global arrays with
overlap areas, SPREAD MOVE / OVERLAP FIX / MOVEWAIT, and global
reductions over communication registers and ring buffers."""
