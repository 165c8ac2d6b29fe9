/* Generated by the SAGE glue-code generator. Do not edit. */
#include "sage_runtime.h"

/* Function table: the runtime executes functions by the index
   of this descriptor into the table. */
const sage_function_descriptor_t sage_function_table[] = {
  { .id = 0, .name = "src", .entry = &matrix_source, .threads = 2 },
  { .id = 1, .name = "corner_turn", .entry = &isspl.corner_turn_local, .threads = 2 },
  { .id = 2, .name = "sink", .entry = &matrix_sink, .threads = 2 },
};

/* Logical buffers: striding information, total size, thread
   counts; the runtime creates the physical buffers. */
const sage_logical_buffer_t sage_logical_buffers[] = {
  { .id = 0, .src = 0, .dst = 1, .elem_bytes = 8, .src_striping = SAGE_STRIPED, .dst_striping = SAGE_STRIPED },
  { .id = 1, .src = 1, .dst = 2, .elem_bytes = 8, .src_striping = SAGE_STRIPED, .dst_striping = SAGE_STRIPED },
};

const int sage_function_count = 3;
const int sage_buffer_count = 2;
