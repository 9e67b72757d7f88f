"""Analytic performance models (paper Section IV).

Everything here is closed-form: no simulation, valid for any ``p`` up
to (and past) the exascale prediction's ``2^20``.  Message sizes are in
*elements* (matrix entries) with ``beta`` the reciprocal bandwidth per
element, matching the paper's usage; multiply a per-byte ``beta`` by
the word size (8 for float64) to convert.
"""
