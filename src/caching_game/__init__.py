"""Exact solver and verification toolkit for a two-player caching game.

A Hider buries k objects across n locations, spending at most depth 1 in
total per the burial constraint; a Searcher with a dig budget wins by
recovering every object. All computation is exact rational arithmetic.

Import from the modules: `core`, `enumeration`, `bestresponse`, `solver`,
`strategies` and `cli`.
"""
