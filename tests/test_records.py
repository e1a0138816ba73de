"""Records (monoslice.records): the methods @record writes, and what a cold start imports."""

import subprocess
import sys

import pytest

from monoslice.ast import (
    BasicRef,
    BasicType,
    Literal,
    NamedRef,
    PortDecl,
    PortKind,
    ServiceDecl,
    SourceProgram,
    StatementSequence,
    Throw,
    TypeDecl,
)
from monoslice.config import Location
from monoslice.parser import parse_source
from monoslice.records import field, record
from monoslice.runtime.interpreter import Fault
from monoslice.semantics import OpInfo, Violation

SAMPLE = (
    "type T { x?:int }\n"
    "interface I { RequestResponse: op( T )( int ) }\n"
    "service S( config ) {\n"
    "  inputPort In { location: config.S.location protocol: http interfaces: I }\n"
    "  main { op( a )( b ) { b = a.x } }\n"
    "}\n"
)

# SAMPLE's repr as dataclasses wrote it: positions and line starts left out
SAMPLE_REPR = (
    "SourceProgram(declarations=[TypeDecl(name='T', root=<BasicType.VOID: 'void'>, "
    "fields=[FieldDecl(name='x', cardinality=<Cardinality.OPTIONAL: '?'>, "
    "type=BasicRef(basic=<BasicType.INT: 'int'>))]), "
    "InterfaceDecl(name='I', request_responses=[RequestResponseOp(name='op', "
    "request=NamedRef(name='T'), response=BasicRef(basic=<BasicType.INT: 'int'>))], one_ways=[]), "
    "ServiceDecl(name='S', config=ConfigParam(name='config', type_name=None), "
    "execution=<ExecutionMode.SINGLE: 'single'>, "
    "input_ports=[PortDecl(kind=<PortKind.INPUT: 'inputPort'>, name='In', "
    "location=PathExpr(path=Path(steps=[PathStep(name='config', index=None), "
    "PathStep(name='S', index=None), PathStep(name='location', index=None)])), "
    "protocol_name='http', protocol_params=[], interfaces=['I'])], output_ports=[], "
    "behavior=InputChoice(branches=[RequestResponseBranch(operation='op', request_var='a', "
    "response_var='b', body=[Assign(target=Path(steps=[PathStep(name='b', index=None)]), "
    "value=PathExpr(path=Path(steps=[PathStep(name='a', index=None), "
    "PathStep(name='x', index=None)])))])]))], source_name='program')"
)


def test_repr_is_the_text_dataclasses_wrote():
    assert repr(parse_source(SAMPLE)) == SAMPLE_REPR
    assert repr(Location.socket("h", 1)) == "Location(scheme='socket', host='h', port=1, name=None)"
    assert repr(OpInfo("op", "rr", NamedRef("T"), None)) == (
        "OpInfo(name='op', kind='rr', request=NamedRef(name='T'), response=None)"
    )
    assert repr(Fault("F")) == "Fault(name='F', data=None)"


def test_equality_ignores_offsets_and_other_uncompared_fields():
    assert NamedRef("T", 3) == NamedRef("T", 9)
    assert NamedRef("T", 3) != NamedRef("U", 3)
    assert parse_source(SAMPLE) == parse_source("\n\n" + SAMPLE.replace(" ", "  "))
    port = PortDecl(PortKind.INPUT, "In", Literal("local://s"), "http", [], ["I"], [40], 2)
    assert port == PortDecl(PortKind.INPUT, "In", Literal("local://s"), "http", [], ["I"], [], 7)
    assert SourceProgram([], "p", [0, 5]) == SourceProgram([], "p", None)
    assert SourceProgram([], "p") != SourceProgram([], "q")


def test_a_record_equals_only_a_record_of_its_own_class():
    assert NamedRef("T") != Throw("T")
    assert NamedRef("T") != ("T",)
    # Literal keeps its own __eq__: a bool is not the int it equals in Python
    assert Literal(1, 0) == Literal(1, 5)
    assert Literal(1) != Literal(True)


def test_a_default_factory_gives_each_record_its_own_value():
    first, second = TypeDecl("A"), TypeDecl("B")
    assert first.fields == [] and first.fields is not second.fields
    assert first.root is BasicType.VOID
    one, two = ServiceDecl("S"), ServiceDecl("T")
    assert one.behavior == StatementSequence([]) and one.behavior is not two.behavior
    assert one.input_ports is not two.input_ports


def test_a_record_that_is_not_frozen_is_mutable_and_unhashable():
    ref = BasicRef(BasicType.INT)
    ref.basic = BasicType.LONG
    assert ref == BasicRef(BasicType.LONG)
    with pytest.raises(TypeError):
        hash(ref)
    with pytest.raises(TypeError):
        hash(Literal(1))


@pytest.mark.parametrize(
    "make", [lambda: Location.parse("socket://h:1"), lambda: Violation("a", "b", "c")]
)
def test_a_frozen_record_refuses_assignment_and_hashes_as_it_compares(make):
    first, second = make(), make()
    assert first == second and first is not second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1
    for name in vars(first):
        with pytest.raises(AttributeError):
            setattr(first, name, "x")
        with pytest.raises(AttributeError):
            delattr(first, name)
    assert first == second


def test_a_frozen_record_of_unhashable_fields_refuses_assignment_and_hashing():
    info = OpInfo("op", "ow", BasicRef(BasicType.INT, 4), None)
    with pytest.raises(AttributeError):
        info.kind = "rr"
    assert info.kind == "ow"
    with pytest.raises(TypeError):  # its request is a syntax node, which is mutable
        hash(info)


def test_post_init_runs_after_the_fields_are_set():
    with pytest.raises(ValueError, match="non-empty"):
        Fault("")
    assert Fault("F").data is None


@record
class Sample:
    first: int
    second: list = field(default_factory=list, repr=False)
    third: str = "x"
    fourth: int = field(default=0, compare=False)


def test_fields_take_keywords_and_defaults_in_annotation_order():
    assert Sample.third == "x" and Sample.fourth == 0 and "second" not in vars(Sample)
    sample = Sample(1, third="y")
    assert vars(sample) == {"first": 1, "second": [], "third": "y", "fourth": 0}
    assert repr(sample) == "Sample(first=1, third='y', fourth=0)"
    assert sample == Sample(1, [], "y", 5)
    assert sample != Sample(1, [0], "y")
    with pytest.raises(TypeError):
        Sample()


def test_slicing_imports_neither_dataclasses_nor_inspect_nor_the_runtime():
    code = (
        "import sys\n"
        "from monoslice import config, deploy, parser, semantics, slicer\n"
        "print([m for m in ('dataclasses', 'inspect', 'monoslice.runtime') if m in sys.modules])\n"
    )
    # -S: no site-packages .pth file runs, so only what monoslice imports is counted
    result = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
