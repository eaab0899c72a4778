"""Source hygiene without a linter: no dead private helpers or constants,
no unused imports and no unread parameters (in the tests too). A private
name that nothing in its module reads is a copy that drifted out of use,
and a parameter that nothing reads is a setting no caller can change;
these checks keep both from growing back."""

import ast
import importlib.util
from pathlib import Path
from random import Random

import pytest

import questsim
from questsim import cards, state

SRC = Path(__file__).parent.parent / "src" / "questsim"
MODULES = sorted(SRC.glob("*.py"))
TEST_MODULES = sorted(Path(__file__).parent.glob("*.py"))


def module_id(path: Path) -> str:
    return path.name if path.parent == SRC else f"tests/{path.name}"


def loaded_names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names read anywhere in tree, outside the subtree skip."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        stack.extend(ast.iter_child_nodes(node))
    return names


def defined_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)]


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_private_module_names_are_used(path):
    tree = parse(path)
    dead = []
    for node in tree.body:
        for name in defined_names(node):
            if (name.startswith("_") and not name.startswith("__")
                    and name not in loaded_names(tree, skip=node)):
                dead.append(name)
    assert not dead, f"{path.name}: unused private names {dead}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"]
                         + TEST_MODULES, ids=module_id)
def test_imports_are_used(path):
    tree = parse(path)
    used = loaded_names(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    unused.append(name)
    assert not unused, f"{path.name}: unused imports {unused}"


# Functions whose signature a caller fixes, so they may leave parameters
# unread: the Policy protocol decide(state, legals, rng), which the
# expert's adapter (the expert builds its own action) and random_decide
# share. Each one named here must leave a parameter unread.
UNREAD_PARAMS_ALLOWED = {
    "agents.py": {"random_decide", "_decide_expert"},
}


def functions(tree: ast.Module):
    """(qualified name, node) of every function and lambda in the module."""
    stack = [("", tree)]
    while stack:
        prefix, node = stack.pop()
        for child in ast.iter_child_nodes(node):
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.ClassDef))
            name = prefix + (child.name if named else "<lambda>")
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                yield name, child
            stack.append((name + "." if named else prefix, child))


# In the tests, only the test functions: a parameter of one is a fixture
# or a parametrized value, and a fixture wanted only for its effect goes in
# @pytest.mark.usefixtures instead.
@pytest.mark.parametrize("path", MODULES + TEST_MODULES, ids=module_id)
def test_parameters_are_read(path):
    allowed = UNREAD_PARAMS_ALLOWED.get(path.name, set())
    in_tests = path.parent != SRC
    unread = []
    seen = set()
    for name, fn in functions(parse(path)):
        if in_tests and not name.rpartition(".")[2].startswith("test_"):
            continue
        seen.add(name)
        a = fn.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [
            p for p in (a.vararg, a.kwarg) if p is not None]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = set().union(*(loaded_names(stmt) for stmt in body))
        missed = [f"{name}({p.arg})" for p in params if p.arg not in read]
        if name not in allowed:
            unread += missed
        elif not missed:
            unread.append(f"{name} reads every parameter but is allowed not to")
    assert allowed <= seen, f"{path.name}: no functions {allowed - seen}"
    assert not unread, f"{path.name}: parameters never read {unread}"


# GameState.move is the one place that changes a card's zone, because it
# keeps the zone index in step; CardInstance sets .zone only when a card
# is built or copied.
def may_write_zone(path: Path, scope: str) -> bool:
    return path.name == "state.py" and (scope == "GameState.move"
                                        or scope.startswith("CardInstance."))


def zone_writes(tree: ast.Module):
    """(enclosing qualified name, line) of each store to a .zone attribute,
    including setattr(obj, "zone", value)."""
    writes = []
    stack = [("", tree)]
    while stack:
        scope, node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                stack.append((f"{scope}.{child.name}" if scope else child.name,
                              child))
                continue
            if ((isinstance(child, ast.Attribute) and child.attr == "zone"
                 and isinstance(child.ctx, ast.Store))
                    or (isinstance(child, ast.Call)
                        and isinstance(child.func, ast.Name)
                        and child.func.id == "setattr" and len(child.args) > 1
                        and isinstance(child.args[1], ast.Constant)
                        and child.args[1].value == "zone")):
                writes.append((scope, child.lineno))
            stack.append((scope, child))
    return writes


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_zones_change_only_through_move(path):
    stray = [f"{scope or '<module>'}:{line}"
             for scope, line in sorted(zone_writes(parse(path)))
             if not may_write_zone(path, scope)]
    assert not stray, f"{path.name}: .zone written outside GameState.move at {stray}"


def test_zone_write_check_sees_card_instance_writes():
    scopes = {scope for scope, _ in zone_writes(parse(SRC / "state.py"))}
    assert scopes == {"CardInstance.__init__", "CardInstance.copy", "GameState.move"}


# A deck is its zone's list in GameState.zone_ids, top card last, and
# quest_index counts the completed-quests list, so GameState alone writes
# those lists: add() and move() keep them in step with each card's zone.
# Other code may read them and shuffle a deck in place (rng.shuffle(deck)),
# and nothing else. A local alias of such a list counts as the list.
INDEX_LISTS = {"player_deck", "encounter_deck", "zone_ids"}
LIST_WRITES = {"append", "pop", "insert", "remove", "clear", "extend", "sort",
               "reverse"}
NESTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def own_nodes(scope: ast.AST) -> list[ast.AST]:
    """The nodes of a module or function, outside nested definitions."""
    nodes, stack = [], [scope]
    while stack:
        node = stack.pop()
        nodes.append(node)
        stack.extend(c for c in ast.iter_child_nodes(node) if not isinstance(c, NESTED))
    return nodes


def index_writes(tree: ast.Module) -> list[tuple[str, int]]:
    """(enclosing qualified name, line) of each write to a deck list, the
    zone_ids list or one of its lists, or a local alias of one."""
    writes = set()
    for scope, fn in [("<module>", tree), *functions(tree)]:
        nodes = own_nodes(fn)
        aliases: set[str] = set()

        def is_list(e: ast.AST) -> bool:
            if isinstance(e, ast.Attribute):
                return e.attr in INDEX_LISTS
            if isinstance(e, ast.Subscript):  # zone_ids[i], not a [:] copy
                return not isinstance(e.slice, ast.Slice) and is_list(e.value)
            return isinstance(e, ast.Name) and e.id in aliases

        for n in sorted((n for n in nodes if isinstance(n, (ast.Assign, ast.NamedExpr))),
                        key=lambda n: (n.lineno, n.col_offset)):
            if is_list(n.value):
                targets = n.targets if isinstance(n, ast.Assign) else [n.target]
                aliases.update(t.id for t in targets if isinstance(t, ast.Name))
        for n in nodes:
            if isinstance(n, ast.Call):
                hit = (isinstance(n.func, ast.Attribute) and n.func.attr in LIST_WRITES
                       and is_list(n.func.value))
            elif isinstance(n, ast.AugAssign):
                hit = is_list(n.target)
            elif isinstance(n, (ast.Attribute, ast.Subscript)):
                hit = (isinstance(n.ctx, (ast.Store, ast.Del))
                       and is_list(n if isinstance(n, ast.Attribute) else n.value))
            else:
                hit = False
            if hit:
                writes.add((scope, n.lineno))
    return sorted(writes)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_decks_and_the_zone_index_change_only_in_game_state(path):
    stray = [f"{scope}:{line}" for scope, line in index_writes(parse(path))
             if not (path.name == "state.py" and scope.startswith("GameState."))]
    assert not stray, f"{path.name}: deck or zone index written at {stray}"


def test_index_write_check_sees_aliases_and_each_kind_of_write():
    tree = ast.parse("def f(state, rng, x):\n"
                     "    deck = state.encounter_deck\n"
                     "    top = deck\n"
                     "    pile = state.zone_ids[x][:]\n"
                     "    rng.shuffle(deck)\n"
                     "    pile.pop()\n"
                     "    x = deck[-1] + len(state.player_deck)\n"
                     "    top.append(x)\n"
                     "    state.player_deck.pop()\n"
                     "    state.zone_ids[x].insert(0, x)\n"
                     "    state.zone_ids[x] = []\n"
                     "    state.encounter_deck = pile\n"
                     "    deck += pile\n"
                     "    del top[0]\n"
                     "g = lambda s: s.zone_ids[0].clear()\n")
    assert index_writes(tree) == [("<lambda>", 15)] + [("f", line) for line in range(8, 15)]
    assert {scope for scope, _ in index_writes(parse(SRC / "state.py"))} == {
        "GameState.__init__", "GameState.clone", "GameState.add", "GameState.move"}


# Each decision row of engine._STAGES gives its action type a check and an
# effect. The check raises the named error and writes nothing; the effect
# writes and raises nothing, because playouts run it alone. The engine
# functions that either calls, transitively, are held to the same rule.
def do_table(tree: ast.Module) -> list[tuple[str, str]]:
    """(check, effect) function names of each decision row of
    engine._STAGES: (action type, legal family, check, effect)."""
    for node in tree.body:
        if "_STAGES" in defined_names(node):
            return [(entry.elts[2].id, entry.elts[3].id)
                    for entry in node.value.values if isinstance(entry, ast.Tuple)]
    raise AssertionError("engine.py defines no _STAGES table")


def reached(tree: ast.Module, name: str) -> list[ast.FunctionDef]:
    """The module function `name` and the module functions it calls by
    plain name, transitively."""
    defs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    found: dict[str, ast.FunctionDef] = {}
    todo = [name]
    while todo:
        fname = todo.pop()
        if fname in found or fname not in defs:
            continue
        found[fname] = defs[fname]
        todo.extend(call.func.id for call in ast.walk(defs[fname])
                    if isinstance(call, ast.Call) and isinstance(call.func, ast.Name))
    return list(found.values())


def raises(fn: ast.FunctionDef) -> list[str]:
    return [f"{fn.name}:{n.lineno}" for n in ast.walk(fn) if isinstance(n, ast.Raise)]


def writes(fn: ast.FunctionDef) -> list[str]:
    """Attribute stores, setattr calls and .move( calls in fn."""
    return [f"{fn.name}:{n.lineno}" for n in ast.walk(fn)
            if (isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store))
            or (isinstance(n, ast.Call)
                and ((isinstance(n.func, ast.Attribute) and n.func.attr == "move")
                     or (isinstance(n.func, ast.Name) and n.func.id == "setattr")))]


def test_action_checks_write_nothing_and_effects_raise_nothing():
    tree = parse(SRC / "engine.py")
    table = do_table(tree)
    assert len(table) == 5 and all(check != effect for check, effect in table)
    found = []
    for check, effect in table:
        found += [f"check writes at {w}" for fn in reached(tree, check)
                  for w in writes(fn)]
        found += [f"effect raises at {r}" for fn in reached(tree, effect)
                  for r in raises(fn)]
    assert not found, f"engine.py: {found}"


def test_split_check_sees_writes_and_raises():
    tree = ast.parse("def check(s, a):\n    s.x = 1\n    helper(s, a)\n"
                     "def helper(s, a):\n    s.move(a, 0)\n    setattr(s, 'y', 2)\n"
                     "def effect(s, a):\n    if a:\n        raise ValueError(a)\n")
    assert sorted(w for fn in reached(tree, "check") for w in writes(fn)) == [
        "check:2", "helper:5", "helper:6"]
    assert [r for fn in reached(tree, "effect") for r in raises(fn)] == ["effect:9"]


# engine._run is the one loop that plays stages by their kind, calling the
# handlers and effects in the stage table _STAGES; every other module plays
# stages through it or the public stage functions. A second reader of the
# table would be a second stage loop.
STAGE_TABLES = {"_STAGES"}


def name_reads(tree: ast.AST, watched: set[str]) -> list[str]:
    """'line name' for each import, plain read or attribute read of one
    of the watched names."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names = [node.id]
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names = [node.attr]
        else:
            continue
        found += [f"{node.lineno} {name}" for name in names if name in watched]
    return found


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "engine.py"],
                         ids=lambda p: p.name)
def test_only_the_engine_reads_the_stage_tables(path):
    reads = name_reads(parse(path), STAGE_TABLES)
    assert not reads, f"{path.name}: stage tables read at {reads}"


def test_stage_table_check_sees_each_kind_of_read():
    tree = ast.parse("from .engine import _STAGES as rules\n"
                     "import questsim.engine\n"
                     "def f(state, rng):\n"
                     "    _STAGES[state.stage](state)\n"
                     "    questsim.engine._STAGES[state.stage](state, rng)\n"
                     "    _STAGES = {}\n")
    assert name_reads(tree, STAGE_TABLES) == ["1 _STAGES", "4 _STAGES", "5 _STAGES"]
    reads = {read.split()[1]
             for read in name_reads(parse(SRC / "engine.py"), STAGE_TABLES)}
    assert reads == STAGE_TABLES


# The legal-family caps are the search's action abstraction, kept in
# legal_actions; the rule agents follow the rules of the game, not the
# caps. A second module that knew a cap or a cap helper would be a second
# place to change when a cap changes.
FAMILY_CAPS = {"MAX_PLANNING_ACTIONS", "MAX_COMMIT_ENUM", "MAX_DEFEND_ACTIONS",
               "MAX_ATTACK_ACTIONS", "_planning_enumerate"}


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "engine.py"],
                         ids=lambda p: p.name)
def test_only_the_engine_knows_the_family_caps(path):
    reads = name_reads(parse(path), FAMILY_CAPS)
    assert not reads, f"{path.name}: family caps read at {reads}"


def test_family_cap_check_sees_every_cap_in_the_engine():
    # name_reads itself is checked by test_stage_table_check_sees_each_kind_of_read.
    reads = {read.split()[1]
             for read in name_reads(parse(SRC / "engine.py"), FAMILY_CAPS)}
    assert reads == FAMILY_CAPS


# The hot modules read enum members through the module-level names bound
# beside each enum (HERO, PLAY_AREA, RULED...), never as class attributes:
# on CPython 3.11 a read such as Zone.PLAY_AREA leaves the interpreter's
# fast path (the state.py docstring gives the cost). Class bodies and
# module-level tables run once, at import, and may read them.
HOT_MODULES = ("state.py", "engine.py", "agents.py", "search.py")
ENUMS = {"CardKind", "Sphere", "Zone", "StageKind", "StageId", "Outcome"}


def enum_reads(tree: ast.Module) -> list[str]:
    """'scope:line Enum.NAME' for each load of an attribute of one of
    ENUMS that runs inside a function or lambda body."""
    found = []

    def visit(node: ast.AST, scope: str, in_body: bool) -> None:
        if (in_body and isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name) and node.value.id in ENUMS):
            found.append(f"{scope}:{node.lineno} {node.value.id}.{node.attr}")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                             ast.ClassDef)):
            name = getattr(node, "name", "<lambda>")
            inner = f"{scope}.{name}" if scope else name
            body = node.body if isinstance(node.body, list) else [node.body]
            # Decorators, defaults and bases run where the definition stands.
            runs_inside = in_body or not isinstance(node, ast.ClassDef)
            for child in ast.iter_child_nodes(node):
                if any(child is stmt for stmt in body):
                    visit(child, inner, runs_inside)
                else:
                    visit(child, scope, in_body)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, scope, in_body)

    visit(tree, "", False)
    return found


@pytest.mark.parametrize("name", HOT_MODULES)
def test_hot_modules_read_no_enum_class_attributes(name):
    reads = enum_reads(parse(SRC / name))
    assert not reads, f"{name}: enum class attributes read in functions at {reads}"


def test_enum_read_check_sees_reads_in_function_bodies():
    tree = ast.parse("T = {Zone.HAND: 1}\n"
                     "class C:\n"
                     "    K = Zone.HAND\n"
                     "    def m(self, z=Zone.HAND):\n"
                     "        return z is Zone.HAND\n"
                     "f = lambda c: [Sphere.NEUTRAL for _ in c]\n")
    assert sorted(enum_reads(tree)) == ["<lambda>:6 Sphere.NEUTRAL",
                                        "C.m:5 Zone.HAND"]


@pytest.mark.parametrize("module, enum", [
    (cards, cards.CardKind), (cards, cards.Sphere), (state, state.StageKind),
    (state, state.StageId), (state, state.Zone), (state, state.Outcome)],
    ids=lambda x: x.__name__.rpartition(".")[2])
def test_each_member_is_bound_to_its_own_name(module, enum):
    wrong = [member.name for member in enum
             if getattr(module, member.name, None) is not member]
    assert not wrong, f"{module.__name__} binds no or another member to {wrong}"


# The span targets of the traced benchmark (benchmarks/layers.py SPANS)
# that name no attribute of the package: the traced run prints "no span"
# for each. The set may only shrink.
STALE_SPANS = {"search._ruled_inplace", "search._random_inplace",
               "agents.ExpertPolicy.decide", "agents.RandomPolicy.decide",
               "agents.FixedTravelPolicy.decide", "agents.FixedAttackPolicy.decide",
               "search.MctsPolicy.decide", "search.FlatMcPolicy.decide"}


def unresolved_spans(layers, spans) -> set[str]:
    """'owner.attribute' of each span target that layers.installed would
    skip: its owner or the attribute in the owner's own namespace is
    missing."""
    missing = set()
    for owner_path, attr, _, _ in spans:
        owner = layers._resolve(questsim, owner_path)
        if owner is None or vars(owner).get(attr) is None:
            missing.add(f"{owner_path}.{attr}".lstrip("."))
    return missing


def test_the_benchmark_spans_name_package_attributes():
    path = Path(__file__).parent.parent / "benchmarks" / "layers.py"
    spec = importlib.util.spec_from_file_location("benchmark_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert unresolved_spans(layers, [("engine", "no_such_rule", "", ""),
                                     ("", "play_game", "", "")]) == {"engine.no_such_rule"}
    stale = unresolved_spans(layers, layers.SPANS)
    assert stale <= STALE_SPANS, f"span targets not in the package: {stale - STALE_SPANS}"


# GameState and the engine alone know where the cards are: state.py keeps
# the board, the engine's setup, stages and determinize change it. Other
# modules read it through engine and GameState queries, never by naming a
# zone, and never write a card or game-state field or shuffle a deck.
BOARD_MODULES = ("state.py", "engine.py")
ZONE_MEMBERS = {zone.name for zone in state.Zone}
BOARD_FIELDS = set(state.CardInstance.__slots__) | set(state.GameState.__slots__)


def board_touches(tree: ast.Module) -> list[str]:
    """'line what' for each zone member named (as name_reads finds it),
    each store to a card or game-state field, setattr included, and each
    .shuffle( call."""
    found = name_reads(tree, ZONE_MEMBERS)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and node.attr in BOARD_FIELDS):
            found.append(f"{node.lineno} .{node.attr} =")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "shuffle"):
            found.append(f"{node.lineno} .shuffle(")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "setattr" and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant)
              and node.args[1].value in BOARD_FIELDS):
            found.append(f"{node.lineno} setattr {node.args[1].value}")
    return sorted(found, key=lambda touch: int(touch.split()[0]))


@pytest.mark.parametrize("path", [p for p in MODULES
                                  if p.name not in BOARD_MODULES],
                         ids=lambda p: p.name)
def test_only_the_engine_knows_the_board(path):
    touches = board_touches(parse(path))
    assert not touches, f"{path.name}: the board read or written at {touches}"


def test_board_check_sees_each_kind_of_touch():
    tree = ast.parse("from .state import HAND\n"
                     "def f(state, card, rng):\n"
                     "    rng.shuffle(state.zone_ids[0])\n"
                     "    card.shadow_card = None\n"
                     "    state.threat_level += 1\n"
                     "    setattr(card, 'damage', 2)\n"
                     "    node.visits = card.zone is state.Zone.STAGING_AREA\n")
    assert board_touches(tree) == ["1 HAND", "3 .shuffle(", "4 .shadow_card =",
                                   "5 .threat_level =", "6 setattr damage",
                                   "7 STAGING_AREA"]
    touches = " ".join(board_touches(parse(SRC / "engine.py")))
    assert all(kind in touches
               for kind in (".shuffle(", ".shadow_card =", "STAGING_AREA"))


# Randomness is drawn at fixed places: the engine's setup, determinize and
# encounter reshuffle, and the random agent; a Random is built only where a
# game or a batch span is seeded. A game's draws all come from one stream,
# so a draw added anywhere else would shift every later one, search's too.
RANDOM_METHODS = {name for name in dir(Random) if not name.startswith("_")}
RANDOM_SITES = {
    "agents.py": ["random_decide .randrange("],
    "cli.py": ["_cmd_play Random("],
    "engine.py": ["new_game .shuffle(", "new_game .shuffle(",
                  "determinize .shuffle(", "determinize .shuffle(",
                  "_draw_encounter .shuffle("],
    "experiments.py": ["_play_span Random("],
}


def random_sites(node: ast.AST, function: str = "<module>") -> list[str]:
    """'line function what' for each call of a Random method name, on any
    receiver, each Random or SystemRandom built and each import of the
    random module or of a name from it other than Random; function is the
    innermost def around the site."""
    found = []
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    if isinstance(node, ast.Call):
        attribute = isinstance(node.func, ast.Attribute)
        name = node.func.attr if attribute else getattr(node.func, "id", None)
        if name in ("Random", "SystemRandom"):
            found.append(f"{node.lineno} {function} {name}(")
        elif attribute and name in RANDOM_METHODS:
            found.append(f"{node.lineno} {function} .{name}(")
    elif isinstance(node, ast.Import):
        found += [f"{node.lineno} {function} import random"
                  for alias in node.names if alias.name == "random"]
    elif isinstance(node, ast.ImportFrom) and node.module == "random":
        found += [f"{node.lineno} {function} import {alias.name}"
                  for alias in node.names if alias.name != "Random"]
    for child in ast.iter_child_nodes(node):
        found += random_sites(child, function)
    return sorted(found, key=lambda site: int(site.split()[0]))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_randomness_is_drawn_only_at_its_sites(path):
    sites = [site.split(" ", 1)[1] for site in random_sites(parse(path))]
    assert sites == RANDOM_SITES.get(path.name, []), (
        f"{path.name}: randomness drawn or seeded at {random_sites(parse(path))}")


def test_random_site_check_sees_each_kind_of_draw():
    tree = ast.parse("import random\n"
                     "from random import Random, shuffle\n"
                     "def f(state, rng: Random):\n"
                     "    rng.shuffle(state.deck)\n"
                     "    return Random(3).random\n"
                     "def g(args):\n"
                     "    def pick(x):\n"
                     "        return twin.choice(x)\n"
                     "    twin = random.SystemRandom(args.seed)\n"
                     "    return [pick(x) for x in args.choices]\n")
    assert random_sites(tree) == [
        "1 <module> import random", "2 <module> import shuffle",
        "4 f .shuffle(", "5 f Random(", "8 pick .choice(",
        "9 g SystemRandom("]
