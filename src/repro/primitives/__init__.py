"""User-facing Data Sliding primitives (Section IV of the paper).

Regular DS algorithms (data-independent remaps):
:func:`~repro.primitives.padding.ds_pad`,
:func:`~repro.primitives.unpadding.ds_unpad`,
:func:`~repro.primitives.alignment.ds_pad_to_alignment`,
:func:`~repro.primitives.ragged.ds_ragged_pad`,
:func:`~repro.primitives.ragged.ds_ragged_unpad`,
:func:`~repro.primitives.slide.ds_insert_gap`,
:func:`~repro.primitives.slide.ds_erase_range`.

Irregular DS algorithms (data-dependent filters):
:func:`~repro.primitives.select.ds_remove_if`,
:func:`~repro.primitives.select.ds_copy_if`,
:func:`~repro.primitives.compact.ds_stream_compact`,
:func:`~repro.primitives.unique.ds_unique`,
:func:`~repro.primitives.partition.ds_partition`.

Keyed (multi-column) irregular DS algorithms:
:func:`~repro.primitives.unique_by_key.ds_unique_by_key`,
:func:`~repro.primitives.records.ds_compact_records`.

Every primitive takes its tuning through a
:class:`repro.config.DSConfig` (``config=``), the only tuning spelling.
For batched execution of several primitives, see
:class:`repro.pipeline.Pipeline`.
"""

from repro.primitives.alignment import alignment_pad_columns, ds_pad_to_alignment
from repro.primitives.common import DEFAULT_DEVICE, PrimitiveResult, resolve_stream
from repro.primitives.compact import ds_stream_compact
from repro.primitives.opspec import OpDescriptor, get_op, list_ops
from repro.primitives.padding import ds_pad, ds_pad_buffer
from repro.primitives.partition import copy_kernel, ds_partition
from repro.primitives.ragged import ds_ragged_pad, ds_ragged_unpad
from repro.primitives.records import ds_compact_records
from repro.primitives.select import ds_copy_if, ds_remove_if
from repro.primitives.slide import ds_erase_range, ds_insert_gap
from repro.primitives.unique import ds_unique
from repro.primitives.unique_by_key import ds_unique_by_key
from repro.primitives.unpadding import ds_unpad, ds_unpad_buffer

__all__ = [
    "DEFAULT_DEVICE",
    "PrimitiveResult",
    "resolve_stream",
    "ds_pad",
    "ds_pad_buffer",
    "ds_unpad",
    "ds_unpad_buffer",
    "ds_remove_if",
    "ds_copy_if",
    "ds_stream_compact",
    "ds_unique",
    "ds_partition",
    "copy_kernel",
    "ds_insert_gap",
    "ds_erase_range",
    "ds_pad_to_alignment",
    "alignment_pad_columns",
    "ds_unique_by_key",
    "ds_compact_records",
    "ds_ragged_pad",
    "ds_ragged_unpad",
    "OpDescriptor",
    "get_op",
    "list_ops",
]
