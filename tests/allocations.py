"""What a compiled kernel's source allocates, read from its syntax tree."""

import ast

UFUNCS = {"add", "subtract", "multiply", "divide", "maximum", "minimum"}


def allocations(tree):
    """The names the statements under tree bind to new arrays (np.empty, np.empty_like, where or
    a ufunc without out), sorted, and the comparisons where computes (each a new mask)."""
    def allocates(call):
        name = ast.unparse(call.func)
        return name in ("np.empty", "np.empty_like", "where") or (
            name in UFUNCS and len(call.args) == 2 and not call.keywords)

    names, masks = [], 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(call, ast.Call) and allocates(call)
                                                for call in ast.walk(node.value)):
            names += [target.id for target in ast.walk(node.targets[0]) if isinstance(target, ast.Name)]
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "where":
            masks += sum(isinstance(arg, ast.Compare) for arg in node.args)
    return sorted(names), masks
