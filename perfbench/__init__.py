"""Seeded flagship benchmark for console_log_parser_ray (see README.md)."""
