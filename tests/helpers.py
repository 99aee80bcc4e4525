"""Shared test helpers."""

import numpy as np

from shoprank.model import ExampleSet, Pairs


def examples_from_rows(rows, task):
    """An ExampleSet of Example rows, in their order; a None label is unlabelled."""
    query_id, query_text, product_id, locale, labels = tuple(zip(*rows)) or ((),) * 5
    label_index = np.array([-1 if label is None else label.index for label in labels], dtype=np.int8)
    return ExampleSet(query_id, query_text, product_id, locale, label_index, task)


def coded(pairs):
    """The Pairs of a sequence of (query_id, product_id) tuples, in their order."""
    query_id, product_id = tuple(zip(*pairs)) or ((), ())
    return Pairs(query_id, product_id)

