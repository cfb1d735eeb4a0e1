"""Distributed generation is centralized generation, element by element.

``generate_for_element`` (paper Section 5's per-element generation) must
hand each element the whole document ``ship`` delivers to it — every
output unit attributed to the element, not the first one.
"""

import pytest

from repro.codegen.base import ConfigurationGenerator
from repro.codegen.transport import CallbackTransport
from repro.errors import CodegenError
from repro.nmsl.compiler import NmslCompiler
from tests.consistency.test_differential import spec_texts

TAGS = ("BartsSnmpd", "acl-table", "osi")
SPECS = spec_texts()
_COMPILER = NmslCompiler()


@pytest.mark.parametrize("name", sorted(SPECS))
def test_each_element_generates_what_it_is_shipped(name):
    result = _COMPILER.compile(SPECS[name])
    generator = ConfigurationGenerator(_COMPILER, result)
    for tag in TAGS:
        shipped = {}
        generator.ship(tag, CallbackTransport(shipped.__setitem__))
        for element in result.specification.systems:
            if element not in shipped:
                with pytest.raises(CodegenError, match="no configuration"):
                    generator.generate_for_element(tag, element)
                continue
            config = generator.generate_for_element(tag, element)
            assert config.text + "\n" == shipped[element], (tag, element)
