"""Scalar reference implementations that differential tests compare the
production kernels against."""
