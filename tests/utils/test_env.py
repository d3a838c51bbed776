"""The shared environment-knob reader: parsing, defaults, error messages."""

from __future__ import annotations

import pytest

from repro.utils.env import read_env, read_env_float, read_env_int
from repro.utils.exceptions import ValidationError

VAR = "REPRO_TEST_KNOB"


@pytest.fixture(autouse=True)
def clean_var(monkeypatch):
    monkeypatch.delenv(VAR, raising=False)


class TestReadEnv:
    def test_unset_is_none(self):
        assert read_env(VAR) is None

    def test_blank_is_none(self, monkeypatch):
        monkeypatch.setenv(VAR, "")
        assert read_env(VAR) is None
        monkeypatch.setenv(VAR, "   ")
        assert read_env(VAR) is None

    def test_value_is_stripped(self, monkeypatch):
        monkeypatch.setenv(VAR, "  hello ")
        assert read_env(VAR) == "hello"


class TestReadEnvInt:
    def test_unset_is_none(self):
        assert read_env_int(VAR) is None

    def test_blank_is_none(self, monkeypatch):
        monkeypatch.setenv(VAR, "  ")
        assert read_env_int(VAR) is None

    def test_parses_integers(self, monkeypatch):
        monkeypatch.setenv(VAR, "4")
        assert read_env_int(VAR) == 4
        monkeypatch.setenv(VAR, " -1 ")
        assert read_env_int(VAR) == -1

    def test_error_names_variable_value_and_hint(self, monkeypatch):
        monkeypatch.setenv(VAR, "many")
        with pytest.raises(ValidationError, match=VAR) as excinfo:
            read_env_int(VAR, hint="e.g. 2")
        message = str(excinfo.value)
        assert "'many'" in message
        assert "e.g. 2" in message
        assert "unset" in message


class TestReadEnvFloat:
    def test_unset_is_none(self):
        assert read_env_float(VAR) is None

    def test_blank_is_none(self, monkeypatch):
        monkeypatch.setenv(VAR, "")
        assert read_env_float(VAR) is None

    def test_parses_floats(self, monkeypatch):
        monkeypatch.setenv(VAR, "0.5")
        assert read_env_float(VAR) == 0.5
        monkeypatch.setenv(VAR, "30")
        assert read_env_float(VAR) == 30.0

    def test_error_names_variable(self, monkeypatch):
        monkeypatch.setenv(VAR, "soon")
        with pytest.raises(ValidationError, match=VAR):
            read_env_float(VAR)

    def test_error_shows_value_and_hint(self, monkeypatch):
        monkeypatch.setenv(VAR, "1,5")
        with pytest.raises(ValidationError) as excinfo:
            read_env_float(VAR, hint="e.g. 2.5 (seconds)")
        message = str(excinfo.value)
        assert "'1,5'" in message
        assert "e.g. 2.5 (seconds)" in message
        assert "unset" in message
