"""Exact decision machinery for Faltings curves in quadratically twisted
isogeny classes of rational elliptic curves, with numeric oracles.
"""
