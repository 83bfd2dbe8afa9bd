"""Tests for the shared error helpers."""

from __future__ import annotations

import pytest

from cyclevc.errors import (
    DimensionMismatchError,
    FormatError,
    InsufficientDataError,
    NonFiniteError,
    located,
)


class TestLocated:
    @pytest.mark.parametrize("error", [NonFiniteError, DimensionMismatchError])
    def test_an_error_of_a_given_type_keeps_its_type_and_message_after_the_location(
        self, error
    ):
        original = error("non-finite gradient in layer 2")
        with pytest.raises(error) as exc:
            with located("epoch 3, step 7", NonFiniteError, DimensionMismatchError):
                raise original
        assert type(exc.value) is error
        assert str(exc.value) == "epoch 3, step 7: non-finite gradient in layer 2"
        assert exc.value.__cause__ is original

    def test_a_subclass_of_a_given_type_keeps_its_own_type(self):
        with pytest.raises(InsufficientDataError, match=r"^a.ftr: holds no frames$"):
            with located("a.ftr", ValueError):
                raise InsufficientDataError("holds no frames")

    @pytest.mark.parametrize("error", [FormatError("bad magic"), KeyError("x"), ValueError("v")])
    def test_an_error_of_another_type_passes_through_unchanged(self, error):
        with pytest.raises(type(error)) as exc:
            with located("epoch 1, step 1", NonFiniteError, InsufficientDataError):
                raise error
        assert exc.value is error
