"""Tests for the OWL-S-style process terms' structural validation."""

import pytest

from repro.services.process import (
    AnyOrder,
    Choice,
    Invoke,
    ProcessError,
    Sequence,
)


class TestTermValidation:
    def test_empty_operation_rejected(self):
        with pytest.raises(ProcessError):
            Invoke("")

    def test_empty_sequence_rejected(self):
        with pytest.raises(ProcessError):
            Sequence(parts=())

    def test_single_branch_choice_rejected(self):
        with pytest.raises(ProcessError):
            Choice(branches=(Invoke("a"),))

    def test_anyorder_bounds(self):
        with pytest.raises(ProcessError):
            AnyOrder(parts=(Invoke("a"),))
        with pytest.raises(ProcessError):
            AnyOrder(parts=tuple(Invoke(f"op{i}") for i in range(5)))
