"""Fixture: sanctioned idioms for every audit pass — must stay clean."""
