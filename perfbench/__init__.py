"""Extraction benchmark for oar_ocr_ray; entry point perfbench/run.py."""
