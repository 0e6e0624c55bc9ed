"""Reference implementations the suite compares the shipped code against."""
