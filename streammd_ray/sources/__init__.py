from .io import write_transcripts
from .transcripts import (
    TRANSCRIPTS_SCHEMA,
    derive_transcripts,
    generate_transcripts,
    transcripts_sql,
)

__all__ = [
    "write_transcripts",
    "TRANSCRIPTS_SCHEMA",
    "derive_transcripts",
    "generate_transcripts",
    "transcripts_sql",
]
