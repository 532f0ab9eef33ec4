"""One benchmark pass in a fresh interpreter.

Reads a job from standard input as JSON:

    {"src": "<dir holding the powertree package>",
     "items": [[argv...], ...],     # empty: only measure the import
     "trace": false}

and writes one JSON result to standard output. The import of
`powertree.cli` is timed first, so `setup_s` starts from an empty
factorization cache and an unbuilt trial-prime sieve, as in a real CLI
call. Each item then runs through `powertree.cli.main(argv)` with its
output captured in memory. Peak RSS is read right after the item loop,
before the outputs are parsed into digests for checking.

With "trace": true the public functions of each module are wrapped where
their callers look them up, and every call becomes a span kept in memory
and returned with the result. Without it nothing is patched.
"""

import io
import json
import resource
import sys
import time

clock = time.perf_counter


def _det_size(args, result):
    return {"dim": len(args[0]), "bits": abs(result).bit_length()}


def _group_size(args, result):
    return {"elements": result.order}


def _graph_size(args, result):
    return {"vertices": result.vertex_count, "edges": result.edge_count()}


def _factor_complete(args, result):
    return {"complete": result is not None}


# (module, attribute, span name, attributes taken from the arguments and result)
PATCHES = (
    ("powertree.cli", "main", "cli.main", None),
    ("powertree.cli", "build", "groups.build", _group_size),
    ("powertree.cli", "power_graph", "powergraph.graph", _graph_size),
    ("powertree.cli", "reduced_power_graph", "powergraph.graph", _graph_size),
    ("powertree.cli", "to_json", "powergraph.render", None),
    ("powertree.cli", "temperley_kappa", "treecount.assembly", None),
    ("powertree.cli", "block_decomposition_kappa", "treecount.blocks", None),
    ("powertree.treecount", "exact_integer_determinant", "treecount.det", _det_size),
    ("powertree.closedform", "exact_integer_determinant", "treecount.det", _det_size),
    ("powertree.closedform", "divisor_profile", "closedform.formula", None),
    ("powertree.closedform", "factorize", "numutil.factor", _factor_complete),
    ("powertree.classify", "factorize", "numutil.factor", _factor_complete),
    ("powertree.treecount", "try_factorize", "numutil.factor", _factor_complete),
)


class Tracer:
    """Spans as (name, item, parent span index, start, end, attributes)."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.item = -1

    def wrap(self, name, fn, measure):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                stack.pop()
                spans[index] = (name, self.item, parent, start, end,
                                {"error": type(exc).__name__})
                raise
            end = clock()
            stack.pop()
            attrs = measure(args, result) if measure else None
            spans[index] = (name, self.item, parent, start, end, attrs)
            return result

        return traced

    def install(self) -> list[str]:
        """Patch every target; returns the targets this source lacks."""
        missing = []
        patches = list(PATCHES)
        closedform = sys.modules["powertree.closedform"]
        for attr in sorted(vars(closedform)):
            if attr.startswith("kappa_") and callable(getattr(closedform, attr)):
                patches.append(("powertree.closedform", attr, "closedform.formula", None))
        for module_name, attr, name, measure in patches:
            module = sys.modules.get(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(name, fn, measure))
        return missing


def _run_item(main, argv):
    """Run one command line; returns (exit code, escaped exception, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    real_out, real_err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    code, exc_name = None, None
    try:
        code = main(argv) or 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception as exc:  # an untyped failure of the program under test
        exc_name = type(exc).__name__
    finally:
        sys.stdout, sys.stderr = real_out, real_err
    return code, exc_name, out.getvalue()


def _product_of_factored(text: str) -> int:
    value = 1
    for part in text.split("*"):
        base, _, exp = part.partition("^")
        value *= int(base) ** int(exp or 1)
    return value


def digest(argv, text: str) -> dict:
    """What the check compares, reduced from one item's stdout."""
    try:
        payload = json.loads(text)
        if argv[0] == "graph":
            degree = [0] * payload["vertices"]
            for u, v in payload["edges"]:
                degree[u] += 1
                degree[v] += 1
            counts = {}
            for d in degree:
                counts[d] = counts.get(d, 0) + 1
            return {"vertices": payload["vertices"], "edges": len(payload["edges"]),
                    "degrees": sorted([d, c] for d, c in counts.items())}
        kappa = payload["kappa"]
        factored = payload.get("factorization")
        consistent = factored is None or _product_of_factored(factored) == int(kappa)
        return {"kappa": kappa, "factorization_consistent": consistent}
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return {"unreadable": f"{type(exc).__name__}: {exc}"}


def main() -> int:
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    start = clock()
    import powertree.cli as cli
    setup_s = clock() - start
    if not cli.__file__.startswith(job["src"]):
        print(f"imported powertree from {cli.__file__}, not {job['src']}", file=sys.stderr)
        return 2
    result = {"setup_s": setup_s}
    items = job["items"]
    if not items:
        json.dump(result, sys.stdout)
        return 0
    tracer = Tracer() if job["trace"] else None
    if tracer:
        result["unpatched"] = tracer.install()
    item_s, codes, exceptions, outputs = [], [], [], []
    pass_start = clock()
    for index, argv in enumerate(items):
        if tracer:
            tracer.item = index
        t0 = clock()
        code, exc_name, text = _run_item(cli.main, argv)
        item_s.append(clock() - t0)
        codes.append(code)
        exceptions.append(exc_name)
        outputs.append(text)
    pass_s = clock() - pass_start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # checks parse values of any length
    result.update(
        pass_s=pass_s,
        item_s=item_s,
        codes=codes,
        exceptions=exceptions,
        peak_rss_mb=rss_mb,
        output_bytes=sum(len(text.encode()) for text in outputs),
        digests=[digest(argv, text) if code == 0 and exc is None else None
                 for argv, code, exc, text in zip(items, codes, exceptions, outputs)],
    )
    if tracer:
        result["spans"] = [
            [name, item, parent, start - pass_start, end - pass_start, attrs]
            for name, item, parent, start, end, attrs in tracer.spans
        ]
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
