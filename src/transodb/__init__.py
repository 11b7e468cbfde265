"""transodb: class models from XML Schema, canonical object-graph XML, and
migration between heterogeneous object stores."""

from .errors import ModelMismatchError, TransodbError
from .model import (
    ClassDef,
    ClassModel,
    Diagnostic,
    FieldDef,
    InvalidModelError,
    ListOf,
    Ref,
    Scalar,
    ScalarKind,
    dump_model,
    is_subtype,
    resolve_layout,
    validate_model,
)
from .objectxml import (
    DocumentError,
    DocumentHeader,
    HeaderMismatchError,
    ObjectRecord,
    Oid,
    RecordError,
    Value,
    read_canonical,
    schema_hash,
    validate_record,
    write_canonical,
    write_verbose,
)
from .xsd import SchemaDiagnostic, emit_schema, parse_schema
from .graph import (
    BuildError,
    BuildErrorKind,
    GraphBuildError,
    ObjectGraph,
    build_graph,
    graphs_equal,
    records_equal,
)
from .store import (
    DanglingRefError,
    DuplicateOidError,
    FileStore,
    MemStore,
    StoreAdapter,
    StoreError,
    StoreLockedError,
    export_store,
    export_to,
    import_document,
    migrate,
)
from .bench import synthesize_graph

__version__ = "0.1.0"
