"""Reference implementations that the library is checked against."""
