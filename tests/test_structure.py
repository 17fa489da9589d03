"""One per-prime counting rule, in symfield, for every caller, with closed
plans free of p, one engine choice, in _kernels, for every counting pass,
one validity check per input kind, one home for each fact the library
states more than once, no floating-point path or tolerance behind any
value, and no integer matmul in the kernels."""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "symtotient"


def _references(tree, name):
    """Lines where the tree reads the name, as a bare name, an attribute or an
    imported alias."""
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == name
        or isinstance(node, ast.Attribute) and node.attr == name
        or isinstance(node, ast.ImportFrom) and any(a.name == name for a in node.names)
    ]


def test_count_field_is_reached_only_from_symfield():
    users = {
        path.name for path in SRC.glob("*.py")
        if _references(ast.parse(path.read_text()), "count_field")
    }
    assert users == {"symfield.py"}


def test_totient_holds_no_memo_and_no_dispatch():
    tree = ast.parse((SRC / "totient.py").read_text())
    for name in ("count_zeros_closed", "count_field"):
        assert _references(tree, name) == [], name
    memos = [
        node.lineno for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        and isinstance(node.value, (ast.Dict, ast.Set, ast.List, ast.Call))
    ] + [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.decorator_list
    ]
    assert memos == []


def test_congruence_counts_on_the_per_prime_rule():
    # no detour through the composite totient and a division by phi(n)
    tree = ast.parse((SRC / "congruence.py").read_text())
    for name in ("phi", "TotientSpec", "euler_phi"):
        assert _references(tree, name) == [], name
    (count_unit_rhs,) = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "count_unit_rhs"
    ]
    assert _references(count_unit_rhs, "_local_units")


def test_engine_choice_stays_in_kernels():
    for name in ("count_sym_dp", "_dp_pays"):
        users = {
            path.name for path in SRC.glob("*.py")
            if _references(ast.parse(path.read_text()), name)
        }
        assert users == {"_kernels.py"}, name
    tree = ast.parse((SRC / "symfield.py").read_text())
    (local_units,) = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_local_units"
    ]
    lens = [
        node.lineno for node in ast.walk(local_units)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "len"
        and any(isinstance(arg, ast.Name) and arg.id == "J" for arg in node.args)
    ]
    assert lens == []


def test_zero_pattern_layout_stays_in_kernels():
    # count_field answers by index set: symfield reads no histogram, builds
    # no bitmask and never names the DP, and count_field keeps its contract
    tree = ast.parse((SRC / "symfield.py").read_text())
    for name in ("pattern_units", "_pattern_units", "_zero_units", "_zeta", "count_sym_dp"):
        assert _references(tree, name) == [], name
    bit_ops = (ast.LShift, ast.RShift, ast.BitAnd)
    assert [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, bit_ops)
    ] == []
    (count_field,) = [
        node for node in ast.parse((SRC / "_kernels.py").read_text()).body
        if isinstance(node, ast.FunctionDef) and node.name == "count_field"
    ]
    assert [a.arg for a in count_field.args.args] == ["p", "k", "js", "joint"]


def test_per_prime_rule_is_one_function():
    # _local_units holds the memo step and the closed sum itself, so the
    # memo is read nowhere else in symfield but at its declaration
    tree = ast.parse((SRC / "symfield.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in ("_closed_units", "_closed_units_uncached"):
        assert name not in functions, name
    (declared,) = [
        node.lineno for node in tree.body
        if isinstance(node, ast.AnnAssign) and node.target.id == "_LOCAL_UNITS"
    ]
    local_units = functions["_local_units"]
    assert [
        line for line in _references(tree, "_LOCAL_UNITS")
        if line != declared and not local_units.lineno <= line <= local_units.end_lineno
    ] == []
    # every caller of _closed has checked J against [1, k], so the full set
    # is the one of size k, with no set built to compare against
    assert [
        node.lineno for node in ast.walk(functions["_closed"])
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "frozenset"
        and any(isinstance(arg, ast.Call) and isinstance(arg.func, ast.Name)
                and arg.func.id == "range" for arg in node.args)
    ] == []


def test_closed_plans_are_free_of_p():
    # the dispatcher sees only whether p = 2, so a plan made for one prime
    # is right for every other: it returns leaves and never evaluates one,
    # and the plans of local counts are read only by the per-prime rule
    tree = ast.parse((SRC / "symfield.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert [a.arg for a in functions["_closed"].args.args] == ["J", "k", "two"]
    assert [a.arg for a in functions["_extend"].args.args] == ["J", "k", "two"]
    for name in ("_closed", "_extend", "_combine"):
        leaves = [
            node.lineno for node in ast.walk(functions[name])
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("_count_e2", "_count_e1e2", "count_zeros_mod2", "_evaluate")
        ]
        assert leaves == [], name
        assert "p" not in {
            node.id for node in ast.walk(functions[name]) if isinstance(node, ast.Name)
        }, name
    (declared,) = [
        node.lineno for node in tree.body
        if isinstance(node, ast.AnnAssign) and node.target.id == "_PLANS"
    ]
    local_units = functions["_local_units"]
    assert [
        line for line in _references(tree, "_PLANS")
        if line != declared and not local_units.lineno <= line <= local_units.end_lineno
    ] == []


def test_one_validity_check_per_input_kind():
    sources = {path.name: path.read_text() for path in SRC.glob("*.py")}
    text = "".join(sources.values())
    for message in ("modulus must be >= 1", "arity k must be >= ", "outside [1, ",
                    "p must be prime", "the Menon identity needs 1 in J",
                    "needs a unit right-hand side", "mode must be one of"):
        assert text.count(message) == 1, message
    assert "_check_indices" not in text
    # the CLI parses --J from text, where int() is the parser
    assert [name for name, source in sources.items() if "frozenset(int(" in source] == ["cli.py"]
    coercions = [
        (name, node.lineno)
        for name, source in sources.items()
        for method in ast.walk(ast.parse(source))
        if isinstance(method, ast.FunctionDef) and method.name == "__post_init__"
        for node in ast.walk(method)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "int"
    ]
    assert coercions == []


def test_shared_facts_have_one_home():
    sources = {path.name: path.read_text() for path in SRC.glob("*.py")}
    trees = {name: ast.parse(source) for name, source in sources.items()}
    # the character (-3|p) is arith._chi3; nothing else splits on p mod 3
    assert [name for name, source in sources.items() if "p % 3" in source] == ["arith.py"]
    # the e_1-fiber histogram is congruence's all-ones solution histogram, so
    # outside _kernels, which defines it, only congruence calls the kernel,
    # under any of its names (the one-set and the multi-set entry)
    histogram_kernels = {
        node.name for node in trees["_kernels.py"].body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("lincong_histogram")
    }
    assert histogram_kernels == {"lincong_histogram", "lincong_histograms"}
    for kernel in histogram_kernels:
        assert {name for name, tree in trees.items()
                if name != "_kernels.py" and _references(tree, kernel)} == {"congruence.py"}, kernel
    assert [
        node.lineno for node in ast.walk(trees["congruence.py"])
        if isinstance(node, ast.ImportFrom) and node.module == "totient"
    ] == []
    numpy_importers = {
        name for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) and any(a.name == "numpy" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "numpy"
    }
    assert numpy_importers == {"_kernels.py"}
    # IntegralityError is raised in arith alone: by _exact_div, the one exact
    # division that checks, and by the cyclotomic reduction
    raisers = {
        name for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "IntegralityError"
    }
    assert raisers == {"arith.py"}
    # the nonempty subsets of an index set come in one order, symfield's
    (subsets,) = [
        node for node in trees["symfield.py"].body
        if isinstance(node, ast.FunctionDef) and node.name == "_nonempty_subsets"
    ]
    combination_users = [
        (name, line) for name, tree in trees.items()
        for line in _references(tree, "combinations")
        if not (name == "symfield.py" and subsets.lineno <= line <= subsets.end_lineno)
    ]
    assert combination_users == [
        ("symfield.py", node.lineno) for node in trees["symfield.py"].body
        if isinstance(node, ast.ImportFrom) and node.module == "itertools"
    ]
    # one contract for a count over F_p^k: count_sym_units's (p, k, js, joint);
    # the DP returns the zero-pattern histogram of every mode, so it takes none
    functions = {
        node.name: node for node in trees["_kernels.py"].body
        if isinstance(node, ast.FunctionDef)
    }
    assert [name for name, func in functions.items()
            if "nonzero" in [a.arg for a in func.args.args]] == []
    assert {
        name: [a.arg for a in functions[name].args.args]
        for name in ("count_field", "count_sym_dp", "count_sym_units")
    } == {
        "count_field": ["p", "k", "js", "joint"],
        "count_sym_dp": ["p", "k", "js"],
        "count_sym_units": ["m", "k", "js", "joint"],
    }
    # the CLI reads the Menon weights and the modes from their homes
    for name in ("identity", "divisor_count", "one"):
        assert _references(trees["cli.py"], name) == [], name
    assert [
        node.lineno for node in ast.walk(trees["cli.py"])
        if isinstance(node, ast.Tuple)
        and [getattr(e, "value", None) for e in node.elts] == ["joint", "individual"]
    ] == []
    # the g_3 factor p^2 - 4p + 6 + (-3|p) is written once, in g3_closed
    assert sum(source.count("4 * p + 6") for source in sources.values()) == 1


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports to export; every other module reads what it imports
    unused = []
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unused.append((path.name, node.lineno, bound))
    assert unused == []


def test_unit_tests_read_the_prime_table():
    sources = {path.name: path.read_text() for path in SRC.glob("*.py")}
    # the scan's unit masks come from _prime_bits, not from a gcd per tuple
    assert [name for name, source in sources.items() if "np.gcd" in source] == []
    # factorization has one home: _kernels takes the primes of m from arith
    kernels = ast.parse(sources["_kernels.py"])
    assert [
        node.lineno for node in ast.walk(kernels)
        if isinstance(node, ast.ImportFrom) and node.module == "arith"
        and [a.name for a in node.names] == ["factorize"]
    ]
    assert {
        name for name, source in sources.items()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef) and "factor" in node.name
    } == {"arith.py"}


def test_one_scan_loop_for_unit_counts():
    # the walk over Z_m^k is looped over in one place, the query body that
    # answers every zero count, unit count and histogram, one query or many
    tree = ast.parse((SRC / "_kernels.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    scan_loops = [
        name for name, func in functions.items()
        for node in ast.walk(func)
        if isinstance(node, ast.For) and isinstance(node.iter, ast.Call)
        and isinstance(node.iter.func, ast.Name) and node.iter.func.id == "_scan"
    ]
    assert scan_loops == ["_query_scan"]
    # every scan kernel reaches that loop
    calls = {
        name: {other for other in functions if other != name and _references(func, other)}
        for name, func in functions.items()
    }

    def reaches(name, seen):
        return name == "_query_scan" or any(
            reaches(callee, seen | {callee}) for callee in calls[name] - seen
        )

    for name in ("count_sym_zeros", "count_sym_units", "count_sym_units_many",
                 "lincong_histogram", "lincong_histograms", "quadform_histogram",
                 "quadform_histograms"):
        assert reaches(name, {name}), name
    for name in ("_scan", "_fold"):
        assert {
            user for user, func in functions.items() if _references(func, name)
        } == {"_query_scan"}, name
    # only the walk decodes prefixes and builds the inner block, on the one
    # row builder
    for name in ("_divmod", "_rows", "arange"):
        assert {
            user for user, func in functions.items() if _references(func, name)
        } == {"_scan"}, name


def test_every_value_stays_an_exact_integer():
    trees = {path.name: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    inexact = [
        (name, node.lineno)
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) and any(a.name == "cmath" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "cmath"
        or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "round"
        or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
        and node.id.endswith("_TOL")
    ]
    assert inexact == []
    # the one float is SYMTOTIENT_BUDGET read as a number of tuples, such as 2e7
    floats = [
        (name, node.lineno)
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "float"
    ]
    (resolve,) = [
        node for node in trees["budget.py"].body
        if isinstance(node, ast.FunctionDef) and node.name == "resolve_budget"
    ]
    assert floats
    assert all(name == "budget.py" and resolve.lineno <= line <= resolve.end_lineno
               for name, line in floats), floats
    # the direct Ramanujan sum, and the fiber weighting the verify cell calls
    # in its place, stay independent of the product form they check
    for func in ("generalized_ramanujan_direct", "_fiber_exponential_sum"):
        (direct,) = [
            node for node in trees["congruence.py"].body
            if isinstance(node, ast.FunctionDef) and node.name == func
        ]
        for name in ("ramanujan_sum", "count_unit_rhs", "_local_units"):
            assert _references(direct, name) == [], (func, name)
    # the jordan cell's reference sieves n^k itself: it shares no
    # factorization with the product form it checks
    (reference,) = [
        node for node in trees["verify.py"].body
        if isinstance(node, ast.FunctionDef) and node.name == "_jordan_reference"
    ]
    for name in ("factorize", "_LPF", "jordan_totient", "_product_form", "_local_units",
                 "_product_form_range"):
        assert _references(reference, name) == [], name
    # and the range evaluator it is zipped with sieves on arith's table, with
    # neither a factorization per n nor the reference's primes
    ranged = {
        node.name: node for node in trees["totient.py"].body
        if isinstance(node, ast.FunctionDef)
        and node.name in ("_product_form_range", "_sieve_windows")
    }
    assert len(ranged) == 2
    for func, node in ranged.items():
        for name in ("factorize", "primes_in_range", "_jordan_reference", "_product_form"):
            assert _references(node, name) == [], (func, name)
    for name in ("_LPF", "_local_units"):
        assert _references(ranged["_product_form_range"], name), name
    # nor do the primes it sieves with
    (sieve,) = [
        node for node in trees["arith.py"].body
        if isinstance(node, ast.FunctionDef) and node.name == "primes_in_range"
    ]
    for name in ("factorize", "_LPF", "_least_prime_factors", "is_prime"):
        assert _references(sieve, name) == [], name


def test_kernels_use_no_integer_matmul():
    # numpy's integer matmul has no BLAS path: a small int32 product ran
    # twice as long as the same product by broadcasting, so the kernels
    # build their products from broadcasts
    tree = ast.parse((SRC / "_kernels.py").read_text())
    matmuls = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
    ]
    assert matmuls == []
    for name in ("matmul", "dot"):
        assert _references(tree, name) == [], name


def test_verify_cells_skip_only_through_attempt():
    # a refused oracle becomes skips in CellResult.attempt alone, so no cell
    # catches the budget's refusal, or anything else, itself
    tree = ast.parse((SRC / "verify.py").read_text())
    (cell_result,) = [
        node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "CellResult"
    ]
    (attempt,) = [
        node for node in cell_result.body
        if isinstance(node, ast.FunctionDef) and node.name == "attempt"
    ]
    (imported,) = [
        node.lineno for node in tree.body
        if isinstance(node, ast.ImportFrom)
        and any(a.name == "BudgetExceededError" for a in node.names)
    ]
    assert [
        line for line in _references(tree, "BudgetExceededError")
        if line != imported and not attempt.lineno <= line <= attempt.end_lineno
    ] == []
    cells = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("cell_")
    ]
    assert len(cells) == 15
    assert [
        cell.name for cell in cells
        if any(isinstance(node, ast.Try) for node in ast.walk(cell))
    ] == []
