"""Set-up shared by the in-process workloads: import, catalog, presentations.

``load`` is what ``setup_s`` times for ``exact-algebra`` and
``series-eval``; ``run.py`` also times it in fresh interpreters, where the
package import is cold.
"""


def load() -> dict:
    import knotstat
    from knotstat import catalog, knotgroups, semigroup

    cat = catalog.builtin_catalog()
    return {
        "knotstat": knotstat,
        "catalog": cat,
        "weight": semigroup.WeightFunction(q=2),
        "presentations": {
            name: knotgroups.builtin_presentation(name)
            for name in sorted(knotgroups.builtin_braids())
        },
    }


if __name__ == "__main__":
    import time

    start = time.perf_counter()
    load()
    print(repr(time.perf_counter() - start))
